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

// segReader streams fixed-width tuples out of a tuple segment run.
type segReader struct {
	seg    *store.Segment
	off    int
	end    int
	tupleW int
	buf    []byte
	bufLo  int
	bufLen int
}

func newSegReader(seg *store.Segment, run segRun, tupleW int) *segReader {
	return &segReader{
		seg:    seg,
		off:    run.off,
		end:    run.off + run.count*tupleW,
		tupleW: tupleW,
		buf:    make([]byte, 2*seg.PageSize()),
		bufLo:  -1,
	}
}

func (s *segReader) next() ([]byte, bool, error) {
	if s.off >= s.end {
		return nil, false, nil
	}
	if s.bufLo < 0 || s.off < s.bufLo || s.off+s.tupleW > s.bufLo+s.bufLen {
		ps := s.seg.PageSize()
		// Read from off to the end of the page containing the tuple's
		// last byte (each flash page is touched once per pass).
		last := s.off + s.tupleW - 1
		wend := (last/ps + 1) * ps
		if wend > s.end {
			wend = s.end
		}
		n := wend - s.off
		if err := s.seg.ReadAt(s.buf[:n], s.off, n); err != nil {
			return nil, false, err
		}
		s.bufLo = s.off
		s.bufLen = n
	}
	t := s.buf[s.off-s.bufLo : s.off-s.bufLo+s.tupleW]
	s.off += s.tupleW
	return t, true, nil
}

// tupleCursor merges the pos-sorted batch runs of one table's MJoin
// output. Positions are disjoint across runs (each result position's id
// belongs to exactly one σVH batch), so a simple min-head scan suffices.
// Heads are double-buffered: a take hands out its head and refills the
// run from spare, the buffer the previous take handed out.
type tupleCursor struct {
	readers []*segReader
	heads   [][]byte
	poss    []int64
	spare   []byte
}

func newTupleCursor(tp *tableProj) (*tupleCursor, error) {
	c := &tupleCursor{}
	for _, run := range tp.outRuns {
		if run.count == 0 {
			continue
		}
		c.readers = append(c.readers, newSegReader(run.seg, run, tp.tupleW))
		c.heads = append(c.heads, nil)
		c.poss = append(c.poss, -1)
	}
	for i := range c.readers {
		if err := c.advance(i); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *tupleCursor) advance(i int) error {
	t, ok, err := c.readers[i].next()
	if err != nil {
		return err
	}
	if !ok {
		c.poss[i] = -1
		return nil
	}
	// Copy: the reader reuses its window buffer across next() calls.
	c.heads[i] = append(c.heads[i][:0], t...)
	c.poss[i] = int64(binary.BigEndian.Uint32(c.heads[i]))
	return nil
}

// take returns the tuple at position pos, if any run holds it. The
// returned slice is valid until the next take or takeMin on this cursor,
// which reuses it as the buffer its run refills.
func (c *tupleCursor) take(pos uint32) ([]byte, bool, error) {
	for i := range c.readers {
		if c.poss[i] == int64(pos) {
			t, err := c.pop(i)
			return t, err == nil, err
		}
	}
	return nil, false, nil
}

// pop hands out run i's head and refills the run into the spare buffer.
func (c *tupleCursor) pop(i int) ([]byte, error) {
	t := c.heads[i]
	c.heads[i], c.spare = c.spare, t
	if err := c.advance(i); err != nil {
		return nil, err
	}
	return t, nil
}

// takeMin returns the tuple with the smallest pending position across
// all runs (positions are disjoint across runs). Used by the run
// consolidation passes to rewrite many batch runs as one.
func (c *tupleCursor) takeMin() ([]byte, bool, error) {
	min := -1
	for i, p := range c.poss {
		if p >= 0 && (min < 0 || p < c.poss[min]) {
			min = i
		}
	}
	if min < 0 {
		return nil, false, nil
	}
	t, err := c.pop(min)
	return t, err == nil, err
}

// valueGetter decodes one projection item from the final-join state.
type valueGetter func(dst *schema.Value) error

// finalJoin is step 7 of the Project algorithm (§4): all operands are
// sorted by position (equivalently by anchor id), so one synchronized
// sequential pass assembles the final tuples and drops the remaining
// false positives. Its buffer needs are declared up front as one plan:
// the fixed readers (anchor column, anchor spool, anchor hidden image,
// projected id columns) plus one cursor buffer per joined table — MJoin
// batch runs are consolidated first so that minimum always suffices.
func (r *queryRun) finalJoin(res *Result, tps []*tableProj) error {
	db, q, sh := r.db, r.q, r.plan.shape
	anchor := q.Anchor
	aSpec, idTables := sh.specs[anchor], sh.idTables
	aImg := r.tok.Hidden[anchor]

	// Fixed reader buffers this pass cannot do without: the shape's, so
	// the consolidation budget below and the plan's floor agree.
	claims := sh.finalClaims()
	fixed := claimMin(claims)

	// Drop empty batch runs, then consolidate each remaining table's
	// runs to its share of the free buffers so the cursors below always
	// fit.
	liveTables := 0
	for _, tp := range tps {
		live := tp.outRuns[:0]
		for _, run := range tp.outRuns {
			if run.count > 0 {
				live = append(live, run)
			}
		}
		tp.outRuns = live
		if len(tp.outRuns) > 0 {
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
			if len(tp.outRuns) > 0 {
				order = append(order, tp)
			}
		}
		sort.Slice(order, func(a, b int) bool { return len(order[a].outRuns) < len(order[b].outRuns) })
		left := liveTables
		for _, tp := range order {
			share := budget / left
			if share < 1 {
				share = 1
			}
			give := len(tp.outRuns)
			if give > share {
				give = share
				if err := r.consolidateTupleRuns(tp, give); err != nil {
					return err
				}
			}
			budget -= give
			left--
		}
	}

	for _, tp := range tps {
		if n := len(tp.outRuns); n > 0 {
			claims = append(claims, ram.Claim{
				Name: fmt.Sprintf("cursors:%s", db.Sch.Tables[tp.table].Name), Min: n, Want: n})
		}
	}
	resv, err := r.ram.Plan(claims...)
	if err != nil {
		return fmt.Errorf("exec: final join: %w", err)
	}
	defer resv.Release()

	anchorCol := r.resCols[anchor]
	var anchorRd runStream
	defer anchorRd.close()
	anchorRd.open(r.tok, anchorCol.seg, anchorCol.run)

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
		idRd[i].open(r.tok, col.seg, col.run)
	}

	// Per-table tuple cursors, in tps order.
	curs := make([]*tupleCursor, len(tps))
	for i, tp := range tps {
		c, err := newTupleCursor(tp)
		if err != nil {
			return err
		}
		curs[i] = c
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
			aDl := r.tok.deltaOf(anchor)
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
		for i, c := range curs {
			tup, found, err := c.take(pos)
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
