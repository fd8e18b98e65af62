package exec

import (
	"fmt"
	"slices"
	"sort"

	"ghostdb/internal/ram"
	"ghostdb/internal/store"
)

// This file holds the RAM-admission fallbacks shared by the operators:
// when a stage receives fewer buffers than it has sorted sublists to
// open, the sublists are consolidated by multi-pass unions (the sublist
// reduction of §3.4) until they fit, instead of failing the query.

// unionFanIn sizes one reduction pass over nRuns sublists: as many
// streams as the session's bound fan-in cap and the free buffers allow
// (one is kept back for the spill writer inside unionSmallest), but no
// more than the deficit requires — merging k runs reduces the count by
// k-1, and rewriting extra sublists costs flash I/O without buying
// anything. The cap comes from the admission-time Binding (MergeFanIn
// inside the QEPSJ pipeline, CrossFanIn when the whole grant is free),
// so the pass structure is fixed by the grant, not by what happens to be
// momentarily unallocated. Fails wrapping ram.ErrExhausted when not even
// a 2-way union fits.
func (r *queryRun) unionFanIn(nRuns, deficit, fanCap int) (int, error) {
	k := r.ram.AvailableBuffers() - 1
	if k > fanCap {
		k = fanCap
	}
	if k > nRuns {
		k = nRuns
	}
	if k < 2 {
		return 0, fmt.Errorf("exec: cannot union %d sublists with %d buffers free: %w",
			nRuns, r.ram.AvailableBuffers(), ram.ErrExhausted)
	}
	if need := deficit + 1; k > need {
		k = need
	}
	return k, nil
}

// sublist is one sorted id run and the list segment that holds it.
type sublist struct {
	seg *store.ListSegment
	run store.Run
}

// runSet is the reduction's working set of sublists, ordered so that a
// pass can take the k smallest without re-sorting the rest: live is a
// min-heap keyed on (Count, arrival order), the low word indexing subs,
// which only ever grows. Arrival order — position in the initial list,
// then one slot per union in the order the passes produce them — is the
// tie-break among equal counts. The simulated counters do not depend on
// it: the sublists of one set are pairwise disjoint (one index level, or
// disjoint chunks), so every original run is read exactly once and a
// union's size is the sum of its inputs whichever equal-sized run goes
// in.
type runSet struct {
	subs []sublist
	live keyHeap
}

func (s *runSet) len() int { return len(s.live) }

// grow makes room for n more sublists, so a caller that knows how many
// it is about to add pays one allocation instead of append's doublings.
func (s *runSet) grow(n int) {
	s.subs = slices.Grow(s.subs, n)
	s.live = slices.Grow(s.live, n)
}

// reset empties the set, keeping its capacity.
func (s *runSet) reset() {
	s.subs, s.live = s.subs[:0], s.live[:0]
}

func (s *runSet) add(seg *store.ListSegment, run store.Run) {
	s.live.push(uint64(run.Count)<<32 | uint64(len(s.subs)))
	s.subs = append(s.subs, sublist{seg: seg, run: run})
}

func (s *runSet) popSmallest() sublist { return s.subs[uint32(s.live.pop())] }

// unionScratch is a union's host bookkeeping: its sublists' streams,
// its source list and the union stream itself. The sublists' streams are
// one slice under one grant, which the first stream holds: a union
// closes its sources together.
type unionScratch struct {
	streams []runStream
	srcs    []idStream
	u       unionStream
}

// openUnion opens the union of every sublist in the set (one RAM buffer
// per flash sublist) and of the direct streams, which ride the
// communication buffer. It builds the union in sc, which must not hold an
// open union.
func (r *queryRun) openUnion(s *runSet, direct []idStream, sc *unionScratch) (idStream, error) {
	n := s.len()
	sc.srcs = slices.Grow(sc.srcs[:0], n+len(direct))
	if n > 0 {
		g, err := r.ram.AllocBuffers(n)
		if err != nil {
			return nil, fmt.Errorf("exec: run buffers: %w", err)
		}
		sc.streams = slices.Grow(sc.streams[:0], n)[:n]
		for i, key := range s.live {
			sub := s.subs[uint32(key)]
			st := &sc.streams[i]
			st.open(r.tok, sub.seg, sub.run)
			sc.srcs = append(sc.srcs, st)
		}
		sc.streams[0].grant = g
	}
	sc.srcs = append(sc.srcs, direct...)
	switch len(sc.srcs) {
	case 0:
		return emptyStream{}, nil
	case 1:
		return sc.srcs[0], nil
	}
	if err := sc.u.init(sc.srcs); err != nil {
		return nil, err
	}
	return &sc.u, nil
}

// unionSmallest replaces the k smallest sublists of the set with their
// union, written as one run on a temp segment; it holds one stream
// buffer per input plus one spill-writer buffer for the duration of the
// pass. The pass's bookkeeping is the run's scratch (r.pick, r.union).
func (r *queryRun) unionSmallest(s *runSet, k int, span string) error {
	if k < 2 || k > s.len() {
		return fmt.Errorf("exec: bad union fan-in %d of %d", k, s.len())
	}
	wg, err := r.ram.ReserveBuffers(1, 1) // spill writer
	if err != nil {
		return err
	}
	defer wg.Release()

	pick := &r.pick
	pick.reset()
	for i := 0; i < k; i++ {
		sub := s.popSmallest()
		pick.add(sub.seg, sub.run)
	}
	u, err := r.openUnion(pick, nil, &r.union)
	if err != nil {
		return err
	}
	out := r.newTemp()
	err = r.col.Span(span, func() error {
		if err := out.BeginRun(); err != nil {
			return err
		}
		for {
			v, ok, err := u.next()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			if err := out.Add(v); err != nil {
				return err
			}
		}
	})
	u.close()
	if err != nil {
		return err
	}
	run, err := out.EndRun()
	if err != nil {
		return err
	}
	if err := out.Seal(); err != nil {
		return err
	}
	s.add(&out.ListSegment, run)
	return nil
}

// consolidateRuns unions sorted id runs in as many passes as needed until
// at most maxRuns remain, so a downstream stage can open them with the
// stream buffers it actually has. It runs outside the QEPSJ pipeline
// (nothing else held), so passes use the full-grant CrossFanIn binding.
// Needs 3 free buffers (2 streams + 1 writer) to make progress; fails
// wrapping ram.ErrExhausted below that.
func (r *queryRun) consolidateRuns(s *runSet, maxRuns int, span string) error {
	if maxRuns < 1 {
		maxRuns = 1
	}
	for s.len() > maxRuns {
		k, err := r.unionFanIn(s.len(), s.len()-maxRuns, r.bind.CrossFanIn)
		if err != nil {
			return err
		}
		if err := r.unionSmallest(s, k, span); err != nil {
			return err
		}
	}
	return nil
}

// consolidateTupleRuns merges a table's pos-sorted MJoin batch runs until
// at most maxRuns remain, so the final join can cursor over them with the
// buffers its reservation granted. Runs hold disjoint position sets, so a
// min-head merge is exact. Each pass reserves one buffer per input reader
// plus one writer.
func (r *queryRun) consolidateTupleRuns(tp *tableProj, maxRuns int) error {
	if maxRuns < 1 {
		maxRuns = 1
	}
	for len(tp.outRuns) > maxRuns {
		g, err := r.ram.ReserveBuffers(3, len(tp.outRuns)+1)
		if err != nil {
			return fmt.Errorf("exec: final join consolidation: %w", err)
		}
		k := g.Buffers() - 1
		if k > len(tp.outRuns) {
			k = len(tp.outRuns)
		}
		if need := len(tp.outRuns) - maxRuns + 1; k > need {
			k = need
		}
		err = r.mergeTupleRuns(tp, k)
		g.Release()
		if err != nil {
			return err
		}
	}
	return nil
}

// mergeTupleRuns replaces the k smallest batch runs of tp with their
// position-ordered merge, spilled to a temp tuple segment.
func (r *queryRun) mergeTupleRuns(tp *tableProj, k int) error {
	order := make([]int, len(tp.outRuns))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return tp.outRuns[order[a]].count < tp.outRuns[order[b]].count })
	pick := order[:k]
	sort.Ints(pick)

	out := r.newTuples()
	sub := &tableProj{projSpec: tp.projSpec}
	for _, i := range pick {
		sub.outRuns = append(sub.outRuns, tp.outRuns[i])
	}
	cur, err := newTupleCursor(sub)
	if err != nil {
		return err
	}
	count := 0
	err = r.col.Span(spanProject, func() error {
		for {
			t, ok, err := cur.takeMin()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			if err := out.Append(t); err != nil {
				return err
			}
			count++
		}
	})
	if err != nil {
		return err
	}
	if err := out.Seal(); err != nil {
		return err
	}

	picked := make(map[int]bool, k)
	for _, i := range pick {
		picked[i] = true
	}
	var nruns []segRun
	for i, run := range tp.outRuns {
		if !picked[i] {
			nruns = append(nruns, run)
		}
	}
	tp.outRuns = append(nruns, segRun{seg: &out.Segment, off: 0, count: count})
	return nil
}
