package exec

import (
	"fmt"
	"slices"

	"ghostdb/internal/ram"
	"ghostdb/internal/store"
)

// This file holds the RAM-admission fallbacks shared by the operators:
// when a stage receives fewer buffers than it has sorted sublists to
// open, the sublists are consolidated in passes until they fit, instead
// of failing the query — id runs by unions (the sublist reduction of
// §3.4), the MJoin's tuple runs by position merges, with one run set,
// fan-in and pass loop for both.

// unionFanIn sizes one reduction pass over nRuns sublists: as many
// streams as the free buffers allow (one is kept back for the spill
// writer inside unionSmallest), but no more than the deficit requires —
// merging k runs reduces the count by k-1, and rewriting extra sublists
// costs flash I/O without buying anything. The free buffers are the
// grant minus what the session's other stages hold (the QEPSJ
// pipeline's writers and SKT reader, the Bloom filters), none of which
// changes during a reduction, so the pass structure is fixed by the
// grant and the plan. Fails wrapping ram.ErrExhausted when not even a
// 2-way union fits.
func (r *queryRun) unionFanIn(nRuns, deficit int) (int, error) {
	k := min(r.ram.AvailableBuffers()-1, nRuns)
	if k < 2 {
		return 0, fmt.Errorf("exec: cannot union %d sublists with %d buffers free: %w",
			nRuns, r.ram.AvailableBuffers(), ram.ErrExhausted)
	}
	return min(k, deficit+1), nil
}

// sublist is one sorted run and the segment that holds it: an id run of
// a list segment, or a run of MJoin tuples (position-sorted records of
// the set's width) of a tuple segment.
type sublist struct {
	seg *store.Segment
	run store.Run
}

// runSet is the reduction's working set of sublists, ordered so that a
// pass can take the k smallest without re-sorting the rest: live is a
// min-heap keyed on (Count, arrival order), the low word indexing subs,
// which only ever grows. Arrival order — position in the initial list,
// then one slot per pass output in the order the passes produce them —
// is the tie-break among equal counts. The simulated counters do not
// depend on it: the sublists of one set are pairwise disjoint (one index
// level, disjoint chunks, or the MJoin batches of one table), so every
// original run is read exactly once and a pass's output size is the sum
// of its inputs whichever equal-sized run goes in.
type runSet struct {
	subs []sublist
	live keyHeap
	// tupleW is the record width of a set of MJoin tuple runs, which a
	// pass merges by position; 0 for id runs, which a pass unions.
	tupleW int
}

func (s *runSet) len() int { return len(s.live) }

// width is the byte width of the set's records.
func (s *runSet) width() int { return max(s.tupleW, store.IDBytes) }

// grow makes room for n more sublists, so a caller that knows how many
// it is about to add pays one allocation instead of append's doublings.
func (s *runSet) grow(n int) {
	s.subs = slices.Grow(s.subs, n)
	s.live = slices.Grow(s.live, n)
}

// reset empties the set and sets its record width, keeping its capacity.
func (s *runSet) reset(tupleW int) {
	s.subs, s.live, s.tupleW = s.subs[:0], s.live[:0], tupleW
}

func (s *runSet) add(seg *store.Segment, run store.Run) {
	s.live.push(uint64(run.Count)<<32 | uint64(len(s.subs)))
	s.subs = append(s.subs, sublist{seg: seg, run: run})
}

func (s *runSet) popSmallest() sublist { return s.subs[uint32(s.live.pop())] }

// openRuns opens one stream over every sublist of the set, in heap
// order, into streams (reusing its capacity). The stage that opens them
// claims their RAM buffers, one per stream.
func (r *queryRun) openRuns(s *runSet, streams []runStream) []runStream {
	streams = slices.Grow(streams[:0], s.len())[:s.len()]
	for i, key := range s.live {
		streams[i].open(r, s.subs[uint32(key)], s.width())
	}
	return streams
}

// unionScratch is a pass's host bookkeeping: an id union's streams,
// source list and union stream, or a tuple merge's cursor.
type unionScratch struct {
	streams []runStream
	srcs    []idStream
	u       unionStream
	c       tupleCursor
}

// openUnion opens the union of every sublist in the set (one stream
// buffer per flash sublist, which the calling stage claims) and of the
// direct streams, which ride the communication buffer. It builds the
// union in sc, which must not hold an open union.
func (r *queryRun) openUnion(s *runSet, direct []idStream, sc *unionScratch) (idStream, error) {
	sc.srcs = slices.Grow(sc.srcs[:0], s.len()+len(direct))
	sc.streams = r.openRuns(s, sc.streams)
	for i := range sc.streams {
		sc.srcs = append(sc.srcs, &sc.streams[i])
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
// union, written as one run on a temp segment. The pass is one stage of
// span's operator, claiming a spill-writer buffer and one stream buffer
// per input. The pass's bookkeeping is the run's scratch (r.pick,
// r.union). Only the pass body depends on the kind of run: id runs are
// unioned (deduplicated), tuple runs merged by position (their positions
// are disjoint).
func (r *queryRun) unionSmallest(s *runSet, k int, span string) error {
	if k < 2 || k > s.len() {
		return fmt.Errorf("exec: bad union fan-in %d of %d", k, s.len())
	}
	pick := &r.pick
	pick.reset(s.tupleW)
	for i := 0; i < k; i++ {
		sub := s.popSmallest()
		pick.add(sub.seg, sub.run)
	}
	claims := []ram.Claim{{Name: "spill-writer", Min: 1, Want: 1}, {Name: "streams", Min: k, Want: k}}
	var out sublist
	err := r.stage(span, claims, func(*ram.Reservation) error {
		var err error
		if s.tupleW == 0 {
			out, err = r.unionPass(pick)
		} else {
			out, err = r.mergePass(pick)
		}
		return err
	})
	if err != nil {
		return err
	}
	s.add(out.seg, out.run)
	return nil
}

// unionPass writes the union of the picked id runs as one run on a temp
// list segment.
func (r *queryRun) unionPass(pick *runSet) (sublist, error) {
	u, err := r.openUnion(pick, nil, &r.union)
	if err != nil {
		return sublist{}, err
	}
	out := r.newTemp()
	err = func() error {
		if err := out.BeginRun(); err != nil {
			return err
		}
		for {
			v, ok, err := u.next()
			if err != nil || !ok {
				return err
			}
			if err := out.Add(v); err != nil {
				return err
			}
		}
	}()
	u.close()
	if err != nil {
		return sublist{}, err
	}
	return out.sealRun()
}

// mergePass writes the position-ordered merge of the picked tuple runs
// as one run on a temp tuple segment.
func (r *queryRun) mergePass(pick *runSet) (sublist, error) {
	out := r.newTuples()
	c := &r.union.c
	if err := c.open(r, pick); err != nil {
		return sublist{}, err
	}
	count := 0
	err := func() error {
		for {
			t, ok, err := c.takeMin()
			if err != nil || !ok {
				return err
			}
			if err := out.Append(t); err != nil {
				return err
			}
			count++
		}
	}()
	c.close()
	if err != nil {
		return sublist{}, err
	}
	return sublist{seg: &out.Segment, run: store.Run{Count: count}}, out.Seal()
}

// consolidateRuns reduces a set of sorted runs in as many passes as
// needed until at most maxRuns remain, so a downstream stage can open
// them with the stream buffers it actually has. Needs 3 free buffers (2
// streams + 1 writer) to make progress; fails wrapping ram.ErrExhausted
// below that.
func (r *queryRun) consolidateRuns(s *runSet, maxRuns int, span string) error {
	maxRuns = max(maxRuns, 1)
	for s.len() > maxRuns {
		k, err := r.unionFanIn(s.len(), s.len()-maxRuns)
		if err != nil {
			return err
		}
		if err := r.unionSmallest(s, k, span); err != nil {
			return err
		}
	}
	return nil
}
