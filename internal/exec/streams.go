// Package exec is GhostDB's secure-side query executor: the operators of
// §3.3–§4 (Vis, CI, Merge, SJoin, BuildBF, ProbeBF, MJoin, Project), the
// per-predicate filtering strategies (Pre, Post, Cross-Pre, Cross-Post,
// Post-Select, NoFilter) and the selectivity-driven planner that chooses
// among them, all operating under the smart USB key's RAM budget and
// I/O-accurate flash cost model.
package exec

import (
	"fmt"
	"slices"

	"ghostdb/internal/ram"
	"ghostdb/internal/store"
)

// idStream produces identifiers in strictly ascending order.
type idStream interface {
	// next returns the next id; ok=false at end of stream.
	next() (uint32, bool, error)
	// close releases any RAM buffers held by the stream.
	close()
}

// emptyStream yields nothing.
type emptyStream struct{}

func (emptyStream) next() (uint32, bool, error) { return 0, false, nil }
func (emptyStream) close()                      {}

// sliceStream yields ids from a host-memory slice. It models data arriving
// over the communication channel, which has a dedicated buffer on the key
// ("the download from Untrusted to Secure can be processed with no RAM
// consumption", §3.4) — so it holds no RAM grant.
type sliceStream struct {
	ids []uint32
	i   int
}

func newSliceStream(ids []uint32) *sliceStream { return &sliceStream{ids: ids} }

func (s *sliceStream) next() (uint32, bool, error) {
	if s.i >= len(s.ids) {
		return 0, false, nil
	}
	v := s.ids[s.i]
	s.i++
	return v, true, nil
}

func (s *sliceStream) close() {}

// seqStream yields i..n-1 (the degenerate "no selective predicate" case:
// every anchor tuple qualifies so far; clip narrows it to the anchor's id
// predicates).
type seqStream struct {
	n, i uint32
}

func (s *seqStream) next() (uint32, bool, error) {
	if s.i >= s.n {
		return 0, false, nil
	}
	v := s.i
	s.i++
	return v, true, nil
}

func (s *seqStream) close() {}

// runStream streams one sorted sublist from flash, holding one RAM buffer
// and, on the host, one page buffer borrowed from the token's free list.
// openUnion opens a union's streams as one slice under one grant, held
// by the first; an operator's column reader is a runStream with no grant
// (its operator's reservation holds the RAM buffer).
//
//ghostdb:requires-slot
type runStream struct {
	rd    store.RunReader
	grant *ram.Grant // nil but in a union's first stream
	tok   *Token
	buf   []byte
}

// open sets s up over one sublist, streaming through a page buffer
// borrowed from the token's free list, or through the one s still holds
// (a reader re-opened for each pass over a column); close returns it.
func (s *runStream) open(tok *Token, seg *store.ListSegment, run store.Run) {
	if s.buf == nil {
		s.tok, s.buf = tok, tok.pageBuf()
	}
	seg.InitRunReader(&s.rd, run, s.buf)
}

func (s *runStream) next() (uint32, bool, error) { return s.rd.Next() }

func (s *runStream) close() {
	if s.buf != nil {
		s.tok.releasePageBuf(s.buf)
		s.buf = nil
	}
	if s.grant != nil {
		s.grant.Release()
		s.grant = nil
	}
}

// closeStreams closes every stream of a slice of them.
//
//ghostdb:requires-slot
func closeStreams(s []runStream) {
	for i := range s {
		s[i].close()
	}
}

// keyHeap is a binary min-heap of packed keys: the ordering value in the
// high 32 bits, a tag (source or sublist index) in the low 32, so equal
// values order by tag. It backs both the k-way union and the reduction's
// run set.
type keyHeap []uint64

func (h keyHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func (h *keyHeap) push(k uint64) {
	s := append(*h, k)
	*h = s
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			return
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *keyHeap) pop() uint64 {
	old := *h
	top, n := old[0], len(old)-1
	old[0] = old[n]
	*h = old[:n]
	h.down(0)
	return top
}

// unionStream merges k ascending streams into one ascending, deduplicated
// stream (the ∪ of the Merge operator): a min-heap of head<<32|source
// over the live sources, so each emitted id costs O(log k).
type unionStream struct {
	srcs  []idStream
	heads keyHeap
	last  int64 // last id emitted; -1 before the first
}

// init sets u up as the union of srcs, reusing its heap's capacity, and
// reads each source's first id. On error it closes the sources.
func (u *unionStream) init(srcs []idStream) error {
	*u = unionStream{srcs: srcs, heads: slices.Grow(u.heads[:0], len(srcs)), last: -1}
	for i, s := range srcs {
		v, ok, err := s.next()
		if err != nil {
			u.close()
			return err
		}
		if ok {
			u.heads.push(uint64(v)<<32 | uint64(i))
		}
	}
	return nil
}

func (u *unionStream) next() (uint32, bool, error) {
	for len(u.heads) > 0 {
		top := u.heads[0]
		min, src := uint32(top>>32), uint32(top)
		v, ok, err := u.srcs[src].next()
		if err != nil {
			return 0, false, err
		}
		if !ok {
			u.heads.pop()
		} else {
			if v <= min {
				return 0, false, fmt.Errorf("exec: unsorted sublist (id %d after %d)", v, min)
			}
			u.heads[0] = uint64(v)<<32 | uint64(src)
			u.heads.down(0)
		}
		if int64(min) != u.last { // dedup across sources
			u.last = int64(min)
			return min, true, nil
		}
	}
	return 0, false, nil
}

func (u *unionStream) close() {
	for _, s := range u.srcs {
		s.close()
	}
}

// intersectStream intersects k ascending streams (the ∩ of Merge). Each
// source keeps an explicit head so no value can be skipped while the
// streams are being aligned.
type intersectStream struct {
	srcs   []idStream
	head   []int64 // current head per source; -1 = exhausted
	primed bool
	done   bool
}

func newIntersectStream(srcs []idStream) *intersectStream {
	return &intersectStream{srcs: srcs, head: make([]int64, len(srcs))}
}

func (s *intersectStream) advance(i int) error {
	v, ok, err := s.srcs[i].next()
	if err != nil {
		return err
	}
	if !ok {
		s.head[i] = -1
		s.done = true
		return nil
	}
	s.head[i] = int64(v)
	return nil
}

func (s *intersectStream) next() (uint32, bool, error) {
	if len(s.srcs) == 0 || s.done {
		return 0, false, nil
	}
	if !s.primed {
		s.primed = true
		for i := range s.srcs {
			if err := s.advance(i); err != nil {
				return 0, false, err
			}
			if s.done {
				return 0, false, nil
			}
		}
	}
	for {
		// Target: the maximum head. All sources must reach it.
		max := s.head[0]
		for _, h := range s.head[1:] {
			if h > max {
				max = h
			}
		}
		aligned := true
		for i := range s.srcs {
			for s.head[i] < max {
				if err := s.advance(i); err != nil {
					return 0, false, err
				}
				if s.done {
					return 0, false, nil
				}
			}
			if s.head[i] > max {
				aligned = false
			}
		}
		if !aligned {
			continue
		}
		out := uint32(max)
		for i := range s.srcs {
			if err := s.advance(i); err != nil {
				return 0, false, err
			}
		}
		return out, true, nil
	}
}

func (s *intersectStream) close() {
	for _, src := range s.srcs {
		src.close()
	}
}

// filterStream applies a predicate (used for anchor id predicates, which
// cost no I/O: the ids are flowing by anyway).
type filterStream struct {
	src  idStream
	keep func(uint32) bool
}

func (f *filterStream) next() (uint32, bool, error) {
	for {
		v, ok, err := f.src.next()
		if err != nil || !ok {
			return 0, false, err
		}
		if f.keep(v) {
			return v, true, nil
		}
	}
}

func (f *filterStream) close() { f.src.close() }

// drain reads a stream to completion into a slice (small results only).
func drain(s idStream) ([]uint32, error) {
	defer s.close()
	var out []uint32
	for {
		v, ok, err := s.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, v)
	}
}
