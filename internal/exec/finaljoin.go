package exec

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"ghostdb/internal/query"
	"ghostdb/internal/ram"
	"ghostdb/internal/schema"
	"ghostdb/internal/store"
)

// tupleCursor merges the position-sorted MJoin tuple runs of one set: a
// keyHeap of pos<<32 | stream over the streams' head records. Positions
// are disjoint across runs (each result position's id belongs to exactly
// one σVH batch), so the heap's minimum is the only candidate for the
// next position. Heads are double-buffered: a take hands out its head and
// refills the stream into spare, the buffer the previous take handed out,
// so a take allocates nothing.
//
//ghostdb:requires-slot
type tupleCursor struct {
	streams []runStream
	heads   [][]byte
	spare   []byte
	slab    []byte // the heads' and spare's storage
	heap    keyHeap
}

// open sets the cursor up over every run of the set, one stream buffer
// each (the calling stage claims them), and reads each run's first
// record. On error it closes the streams.
func (c *tupleCursor) open(r *queryRun, s *runSet) error {
	n, w := s.len(), s.tupleW
	c.streams = r.openRuns(s, c.streams)
	c.slab = slices.Grow(c.slab[:0], (n+1)*w)[:(n+1)*w]
	c.heads = slices.Grow(c.heads[:0], n)[:n]
	c.heap = slices.Grow(c.heap[:0], n)
	for i := range c.streams {
		c.heads[i] = c.slab[i*w : (i+1)*w]
		ok, err := c.streams[i].rd.NextRecord(c.heads[i])
		if err != nil {
			c.close()
			return err
		}
		if ok {
			c.heap.push(c.key(i))
		}
	}
	c.spare = c.slab[n*w:]
	return nil
}

// key is stream i's heap key: its head's position, then i.
func (c *tupleCursor) key(i int) uint64 {
	return uint64(binary.BigEndian.Uint32(c.heads[i]))<<32 | uint64(i)
}

// take returns the tuple at position pos, if a run holds it. The final
// join asks for every position in ascending order, so only the minimum
// can match. The returned slice is valid until the next take or takeMin
// on this cursor, which reuses it as the buffer its run refills.
func (c *tupleCursor) take(pos uint32) ([]byte, bool, error) {
	if len(c.heap) == 0 || uint32(c.heap[0]>>32) != pos {
		return nil, false, nil
	}
	return c.takeMin()
}

// takeMin returns the tuple with the smallest pending position across
// all runs: one step of a tuple reduction pass.
func (c *tupleCursor) takeMin() ([]byte, bool, error) {
	if len(c.heap) == 0 {
		return nil, false, nil
	}
	i := int(uint32(c.heap[0]))
	t := c.heads[i]
	c.heads[i], c.spare = c.spare, t
	ok, err := c.streams[i].rd.NextRecord(c.heads[i])
	if err != nil {
		return nil, false, err
	}
	if ok {
		c.heap[0] = c.key(i)
		c.heap.down(0)
	} else {
		c.heap.pop()
	}
	return t, true, nil
}

func (c *tupleCursor) close() { closeStreams(c.streams) }

// valueGetter decodes one projection item from the final-join state.
type valueGetter func(dst *schema.Value) error

// finalJoin is step 7 of the Project algorithm (§4): all operands are
// sorted by position (equivalently by anchor id), so one synchronized
// sequential pass assembles the final tuples and drops the remaining
// false positives. Its stage claims the fixed readers (anchor column,
// anchor spool, anchor hidden image, projected id columns) plus one
// cursor buffer per joined table — MJoin batch runs are consolidated
// first so that minimum always suffices.
func (r *queryRun) finalJoin(res *Result, tps []*tableProj) error {
	db, sh := r.db, r.plan.shape

	// Fixed reader buffers this pass cannot do without: the shape's, so
	// the consolidation budget below and the plan's floor agree.
	claims := sh.finalClaims()
	fixed := claimMin(claims)

	// Consolidate each table's batch runs to its share of the free
	// buffers so the cursors below always fit.
	liveTables := 0
	for _, tp := range tps {
		if tp.runs.len() > 0 {
			liveTables++
		}
	}
	if liveTables > 0 {
		// Fail before consolidating when even one cursor per table cannot
		// fit next to the fixed readers: the plan below would refuse
		// anyway, and the consolidation rewrites are not free.
		if fixed+liveTables > r.ram.AvailableBuffers() {
			return fmt.Errorf("exec: final join needs %d buffers, %d free: %w",
				fixed+liveTables, r.ram.AvailableBuffers(), ram.ErrExhausted)
		}
		budget := r.ram.AvailableBuffers() - fixed
		// Waterfill: satisfy run-light tables first so run-heavy ones get
		// the leftovers instead of consolidating against a flat share.
		order := make([]*tableProj, 0, liveTables)
		for _, tp := range tps {
			if tp.runs.len() > 0 {
				order = append(order, tp)
			}
		}
		sort.Slice(order, func(a, b int) bool { return order[a].runs.len() < order[b].runs.len() })
		left := liveTables
		for _, tp := range order {
			share := max(budget/left, 1)
			give := tp.runs.len()
			if give > share {
				give = share
				if err := r.consolidateRuns(&tp.runs, give, spanProject); err != nil {
					return err
				}
			}
			budget -= give
			left--
		}
	}

	for _, tp := range tps {
		if n := tp.runs.len(); n > 0 {
			claims = append(claims, ram.Claim{
				Name: fmt.Sprintf("cursors:%s", db.Sch.Tables[tp.table].Name), Min: n, Want: n})
		}
	}
	return r.stage(spanProject, claims, func(*ram.Reservation) error { return r.joinPositions(res, tps) })
}

// joinPositions is the final join's one synchronized pass, run inside its
// stage, which holds the readers' and the tuple cursors' buffers.
func (r *queryRun) joinPositions(res *Result, tps []*tableProj) error {
	db, q, sh := r.db, r.q, r.plan.shape
	anchor := q.Anchor
	aSpec, idTables := sh.specs[anchor], sh.idTables
	aImg := r.tok.Hidden[anchor]

	anchorCol := r.resCols[anchor]
	var anchorRd runStream
	defer anchorRd.close()
	anchorRd.open(r, anchorCol, store.IDBytes)

	// Anchor visible values (spooled, id-sorted).
	var aCur *spoolCursor
	if len(aSpec.visCols) > 0 {
		sp := r.spool[anchor]
		if sp == nil {
			return fmt.Errorf("exec: anchor visible values not spooled")
		}
		aCur = newSpoolCursor(sp.file)
	}

	// Anchor hidden values.
	var aHidRd *store.SortedReader
	var aHidRec []byte
	if len(aSpec.hidCols) > 0 {
		if aImg == nil {
			return fmt.Errorf("exec: no hidden image for anchor")
		}
		aHidRd = aImg.File.NewSortedReader()
		aHidRec = make([]byte, aImg.File.RowWidth())
	}

	// Non-anchor id columns, in idTables order.
	idRd := make([]runStream, len(idTables))
	defer closeStreams(idRd)
	idVal := make([]uint32, len(idTables))
	for i, ti := range idTables {
		col, ok := r.resCols[ti]
		if !ok {
			return fmt.Errorf("exec: missing QEPSJ column for %s", db.Sch.Tables[ti].Name)
		}
		idRd[i].open(r, col, store.IDBytes)
	}

	// Per-table tuple cursors, in tps order.
	curs := make([]tupleCursor, len(tps))
	defer func() {
		for i := range curs {
			curs[i].close()
		}
	}()
	for i, tp := range tps {
		if err := curs[i].open(r, &tp.runs); err != nil {
			return err
		}
	}

	tuples := make([][]byte, len(tps))
	var aid uint32
	var aHidLoaded bool
	// r.resN bounds the rows: false positives are dropped in the pass.
	rows := newRowArena(db.Sch, q, r.resN)

	// Build one getter per projection item; each captures its slot and
	// byte offset once.
	getters := make([]valueGetter, len(q.Projections))
	for i, p := range q.Projections {
		t := db.Sch.Tables[p.Table]
		switch {
		case p.Table == anchor && p.ColIdx == query.IDCol:
			getters[i] = func(dst *schema.Value) error { *dst = schema.IntVal(int64(aid)); return nil }
		case p.Table != anchor && p.ColIdx == query.IDCol:
			slot := slices.Index(idTables, p.Table)
			getters[i] = func(dst *schema.Value) error { *dst = schema.IntVal(int64(idVal[slot])); return nil }
		case p.Table == anchor && !t.Columns[p.ColIdx].Hidden:
			col := t.Columns[p.ColIdx]
			off, w := aSpec.off[p.ColIdx], col.EncodedWidth()
			getters[i] = func(dst *schema.Value) error {
				rec, err := aCur.seek(aid)
				if err != nil {
					return err
				}
				if rec == nil {
					return fmt.Errorf("exec: anchor id %d missing from its Vis spool", aid)
				}
				return rows.decode(dst, rec[off:off+w], col.Kind)
			}
		case p.Table == anchor:
			col := t.Columns[p.ColIdx]
			aDl := r.overlay(anchor)
			o, w := aImg.Codec.ColumnRange(aImg.ColPos[p.ColIdx])
			getters[i] = func(dst *schema.Value) error {
				if !aHidLoaded {
					if err := aImg.row(aHidRd, aDl, aid, aHidRec); err != nil {
						return err
					}
					aHidLoaded = true
				}
				return rows.decode(dst, aHidRec[o:o+w], col.Kind)
			}
		default:
			col := t.Columns[p.ColIdx]
			slot := slices.IndexFunc(tps, func(tp *tableProj) bool { return tp.table == p.Table })
			if slot < 0 {
				return fmt.Errorf("exec: no value source for %s.%s", t.Name, col.Name)
			}
			off := tps[slot].off[p.ColIdx]
			w := col.EncodedWidth()
			getters[i] = func(dst *schema.Value) error {
				return rows.decode(dst, tuples[slot][off:off+w], col.Kind)
			}
		}
	}

	for pos := uint32(0); int(pos) < r.resN; pos++ {
		var ok bool
		var err error
		aid, ok, err = anchorRd.next()
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("exec: anchor column shorter than result count")
		}
		aHidLoaded = false
		for i := range idRd {
			v, ok, err := idRd[i].next()
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("exec: id column of %s exhausted early", db.Sch.Tables[idTables[i]].Name)
			}
			idVal[i] = v
		}
		keep := true
		for i := range curs {
			tup, found, err := curs[i].take(pos)
			if err != nil {
				return err
			}
			if !found {
				keep = false // exact filter: a required table lacks this position
				continue
			}
			tuples[i] = tup
		}
		if !keep {
			continue
		}
		row := rows.next()
		for i, g := range getters {
			if err := g(&row[i]); err != nil {
				return err
			}
		}
	}
	rows.finish(res)
	return nil
}
