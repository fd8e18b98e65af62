package exec

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ghostdb/internal/delta"
	"ghostdb/internal/ram"
	"ghostdb/internal/store"
)

// reduceGroups implements the sublist reduction phase of §3.4: when the
// total number of sublists exceeds the stream buffers the Merge could
// open, the smallest sublists of the largest group are pre-unioned into
// a single sublist spilled to flash, repeatedly, until everything fits.
// Downstream pipeline stages (SKT reader, column writers) hold their own
// reservations, so whatever AvailableBuffers reports, less the keep
// buffers the Merge's consumer claims in the Merge stage itself (a DML's
// write stage), is the Merge's to spend. Needs 3 free buffers (2 streams
// + 1 spill writer) to make progress when reduction is required.
func (r *queryRun) reduceGroups(groups []*mergeGroup, keep int) error {
	totalRuns := 0
	for _, g := range groups {
		totalRuns += g.runs.len()
	}
	for totalRuns > r.ram.AvailableBuffers()-keep {
		// Largest group first.
		g := groups[0]
		for _, cand := range groups[1:] {
			if cand.runs.len() > g.runs.len() {
				g = cand
			}
		}
		if g.runs.len() < 2 {
			return fmt.Errorf("exec: cannot reduce %d merge sublists (largest group has %d): %w",
				totalRuns, g.runs.len(), ram.ErrExhausted)
		}
		// Union the k smallest sublists ("the smallest sublists of each
		// list are the best candidates for reduction").
		k, err := r.unionFanIn(g.runs.len(), totalRuns-(r.ram.AvailableBuffers()-keep))
		if err != nil {
			return err
		}
		if err := r.unionSmallest(&g.runs, k, spanMerge); err != nil {
			return err
		}
		totalRuns -= k - 1
	}
	return nil
}

// openGroup opens the union stream of one merge group.
func (r *queryRun) openGroup(g *mergeGroup) (idStream, error) {
	return r.openUnion(&g.runs, g.streams, &g.union)
}

// groupClaims is the claim of a stage that opens the unions of groups:
// one stream buffer per flash sublist; none when the groups hold only
// direct streams.
func groupClaims(groups []*mergeGroup) []ram.Claim {
	n := 0
	for _, g := range groups {
		n += g.runs.len()
	}
	if n == 0 {
		return nil
	}
	return []ram.Claim{{Name: "streams", Min: n, Want: n}}
}

// openMerged opens the full Merge: the intersection of all groups. With
// no groups at all, every anchor tuple qualifies so far (a sequential id
// stream over the anchor table). The Merge stage that calls it claims the
// groups' stream buffers (groupClaims).
func (r *queryRun) openMerged(groups []*mergeGroup) (idStream, error) {
	if len(groups) == 0 {
		return &seqStream{n: uint32(r.tok.rows[r.q.Anchor])}, nil
	}
	srcs := make([]idStream, 0, len(groups))
	for _, g := range groups {
		s, err := r.openGroup(g)
		if err != nil {
			for _, s2 := range srcs {
				s2.close()
			}
			return nil, err
		}
		srcs = append(srcs, s)
	}
	if len(srcs) == 1 {
		return srcs[0], nil
	}
	return newIntersectStream(srcs), nil
}

// storeSpill is the shared-stage store output: survivor tuples written
// row-major (anchor id, then one id per needed table) into one segment
// through a single staged buffer, awaiting the distribution pass.
type storeSpill struct {
	seg    *store.Segment
	needed []int
	n      int
}

// joinAndStore drives the pipelined batch loop: pull anchor ids from the
// Merge, semi-join them with the anchor's SKT to recover the descendant
// ids the projection needs, probe the Bloom filters, and materialize the
// survivors (the Store cost of Figure 15). The RAM for the writers and
// the SKT reader is reserved up front by the caller's pipeline plan
// (qepsj), so this stage never races the Merge for buffers. direct is
// the writer variant the grant picked (Plan.storeDirect): per-column
// writers when the grant holds them, otherwise one shared staged spill
// buffer whose contents distributeSpill rewrites column by column
// afterwards.
// tombChecks lists joined non-anchor tables with live tombstones: each
// anchor tuple is chased to them through the SKT and dropped when any
// referenced row is deleted (SQL join semantics over tombstones).
//
// Each operator runs once per batch, under one cost span, never once per
// tuple. The counters cannot tell: within a batch every SKT read now
// precedes every Store write, but a read never moves a page, and the
// Store writes keep their relative order.
func (r *queryRun) joinAndStore(merged idStream, direct bool, needed, tombChecks []int, bfs []*bfFilter) error {
	db := r.db
	anchor := r.q.Anchor

	// The SKT lookup set is the projection's needed tables plus any
	// tomb-checked tables not already among them.
	lookup := append([]int(nil), needed...)
	type tombCheck struct {
		pos int
		dl  *delta.Table
	}
	var tombs []tombCheck
	for _, ti := range tombChecks {
		pos := slices.Index(lookup, ti)
		if pos < 0 {
			pos = len(lookup)
			lookup = append(lookup, ti)
		}
		tombs = append(tombs, tombCheck{pos: pos, dl: r.tok.deltaOf(ti)})
	}
	// Each filter probes the anchor id (-1) or one id of the tuple.
	bfPos := make([]int, len(bfs))
	for i, f := range bfs {
		bfPos[i] = -1
		if f.table != anchor {
			bfPos[i] = slices.Index(needed, f.table)
		}
	}

	var anchorSeg *tempList
	var colSegs []*tempList // aligned with needed
	var spillSeg *tempTuples
	var spillRec []byte
	if direct {
		anchorSeg = r.newTemp()
		if err := anchorSeg.BeginRun(); err != nil {
			return err
		}
		colSegs = make([]*tempList, len(needed))
		for i := range needed {
			colSegs[i] = r.newTemp()
			if err := colSegs[i].BeginRun(); err != nil {
				return err
			}
		}
	} else {
		spillSeg = r.newTuples()
		spillRec = make([]byte, (1+len(needed))*store.IDBytes)
	}

	var skt *sktAccess
	if len(lookup) > 0 {
		s, ok := r.tok.catalog().SKTOf(anchor)
		if !ok {
			return fmt.Errorf("exec: no SKT on anchor %s", db.Sch.Tables[anchor].Name)
		}
		cols := make([]int, len(lookup))
		for i, ti := range lookup {
			c, ok := s.ColumnOf(ti)
			if !ok {
				return fmt.Errorf("exec: SKT of %s has no column for %s",
					db.Sch.Tables[anchor].Name, db.Sch.Tables[ti].Name)
			}
			cols[i] = c
		}
		skt = &sktAccess{skt: s, reader: s.File().NewSortedReader(), cols: cols,
			rec: make([]byte, s.File().RowWidth())}
	}

	// One batch is the anchor ids plus their w-id SKT tuples, staged in
	// one buffer's worth of ids (at least 16).
	w := len(lookup)
	batch := max(max(r.ram.BufferSize()/store.IDBytes, 16)/(1+w), 1)
	stage := make([]uint32, batch*(1+w))
	ids, tuples := stage[:batch], stage[batch:]
	// keep compacts the batch's first k tuples, in order, to those alive
	// accepts and returns how many remain.
	keep := func(k int, alive func(id uint32, tuple []uint32) bool) int {
		j := 0
		for i := 0; i < k; i++ {
			if !alive(ids[i], tuples[i*w:(i+1)*w]) {
				continue
			}
			if j != i {
				ids[j] = ids[i]
				copy(tuples[j*w:(j+1)*w], tuples[i*w:(i+1)*w])
			}
			j++
		}
		return j
	}
	n := 0
	for {
		// Merge: fill a batch of anchor ids.
		k := 0
		err := r.stage(spanMerge, nil, func(*ram.Reservation) error {
			for k < batch {
				v, ok, err := merged.next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				ids[k] = v
				k++
			}
			return nil
		})
		if err != nil {
			return err
		}
		if k == 0 {
			break
		}
		// SJoin: fetch the descendant ids from the SKT.
		if skt != nil {
			err := r.stage(spanSJoin, nil, func(*ram.Reservation) error {
				for i, id := range ids[:k] {
					if err := skt.read(id, tuples[i*w:(i+1)*w]); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		// Tombstones: drop the tuples whose chased rows are deleted.
		if len(tombs) > 0 {
			k = keep(k, func(_ uint32, tuple []uint32) bool {
				for _, tc := range tombs {
					if tc.dl.Dead(tuple[tc.pos]) {
						return false
					}
				}
				return true
			})
		}
		// ProbeBF: approximate visible filtering.
		if len(bfs) > 0 && k > 0 {
			err := r.stage(spanBF, nil, func(*ram.Reservation) error {
				k = keep(k, func(id uint32, tuple []uint32) bool {
					for i, f := range bfs {
						v := id
						if p := bfPos[i]; p >= 0 {
							v = tuple[p]
						}
						if !f.filter.MayContain(v) {
							return false
						}
					}
					return true
				})
				return nil
			})
			if err != nil {
				return err
			}
		}
		if k == 0 {
			continue
		}
		// Store: materialize the survivors.
		err = r.stage(spanStore, nil, func(*ram.Reservation) error {
			for i, id := range ids[:k] {
				tuple := tuples[i*w : i*w+len(needed)]
				if direct {
					if err := anchorSeg.Add(id); err != nil {
						return err
					}
					for c, v := range tuple {
						if err := colSegs[c].Add(v); err != nil {
							return err
						}
					}
					continue
				}
				binary.BigEndian.PutUint32(spillRec, id)
				for c, v := range tuple {
					binary.BigEndian.PutUint32(spillRec[(c+1)*store.IDBytes:], v)
				}
				if err := spillSeg.Append(spillRec); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		n += k
	}

	r.resN = n
	r.resCols = map[int]sublist{}
	if !direct {
		err := r.stage(spanStore, nil, func(*ram.Reservation) error { return spillSeg.Seal() })
		if err != nil {
			return err
		}
		r.spill = &storeSpill{seg: &spillSeg.Segment, needed: needed, n: n}
		return nil
	}
	finish := func(ti int, seg *tempList) error {
		return r.stage(spanStore, nil, func(*ram.Reservation) error {
			var err error
			r.resCols[ti], err = seg.sealRun()
			return err
		})
	}
	if err := finish(anchor, anchorSeg); err != nil {
		return err
	}
	for i, ti := range needed {
		if err := finish(ti, colSegs[i]); err != nil {
			return err
		}
	}
	return nil
}

// distributeSpill is the shared-stage mode's second half: re-read the
// spilled row-major survivor tuples once per column (a sequential scan
// each) and write that column's ids into its own list segment — exactly
// the layout the projection operators expect from the direct writers.
// Its Store stage claims 2 buffers: the spill reader (one page, a tuple
// straddling a page boundary carried in a one-record buffer, like the
// final join's tuple cursors) plus the one open column writer. The extra
// flash traffic (one spill write + k+1 sequential re-reads) is the price
// of the lower floor; the simulated counters record it under Store.
func (r *queryRun) distributeSpill() error {
	sp := r.spill
	r.spill = nil
	tupleW := (1 + len(sp.needed)) * store.IDBytes
	claims := []ram.Claim{
		{Name: "spill-reader", Min: 1, Want: 1},
		{Name: "column-writer", Min: 1, Want: 1},
	}
	return r.stage(spanStore, claims, func(*ram.Reservation) error {
		order := append([]int{r.q.Anchor}, sp.needed...)
		var rd runStream
		defer rd.close()
		rec := make([]byte, tupleW)
		for pos, ti := range order {
			seg := r.newTemp()
			if err := seg.BeginRun(); err != nil {
				return err
			}
			rd.open(r, sublist{seg: sp.seg, run: store.Run{Count: sp.n}}, tupleW)
			for {
				ok, err := rd.rd.NextRecord(rec)
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				if err := seg.Add(binary.BigEndian.Uint32(rec[pos*store.IDBytes:])); err != nil {
					return err
				}
			}
			var err error
			if r.resCols[ti], err = seg.sealRun(); err != nil {
				return err
			}
		}
		return sp.seg.Free()
	})
}

// sktAccess wraps sorted SKT row access with column projection.
type sktAccess struct {
	skt    interface{ File() *store.RowFile }
	reader *store.SortedReader
	cols   []int
	rec    []byte
}

func (s *sktAccess) read(id uint32, dst []uint32) error {
	if err := s.reader.Read(id, s.rec); err != nil {
		return err
	}
	for i, c := range s.cols {
		dst[i] = binary.BigEndian.Uint32(s.rec[c*store.IDBytes:])
	}
	return nil
}
