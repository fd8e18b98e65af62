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

	"ghostdb/internal/delta"
	"ghostdb/internal/query"
	"ghostdb/internal/schema"
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

// scanStream is a Scan-routed hidden predicate on the anchor as a direct
// stream of its Merge group: it reads the predicate's column out of the
// anchor's hidden image (imageColumn) through a page lent from the
// token's pool, which the Merge stage claims (groupClaims), and yields
// the ids of the live rows that match, in ascending order, as the Merge
// pulls them. It writes nothing, and its reads are the image's pages and
// the column's bytes whatever the match count: open lends the page and
// positions the reader when the Merge opens the group, and close reads
// the pages left, so every page is loaded once whether the Merge pulled
// every id, a few or none (an intersection stops at its first empty
// group). Each page load is booked to a nested Scan span.
//
//ghostdb:requires-slot
type scanStream struct {
	r      *queryRun
	img    *HiddenImage
	p      query.Pred
	kind   schema.Kind
	off, w int
	// dead screens tombstoned rows; ov is the overlay consulted for the
	// column (columnOverlay), nil when no hidden SET named it.
	dead, ov *delta.Table
	col      imageColumn
	buf      []byte // the lent page, nil when not open
	err      error  // the drain's, which the Merge stage reports
}

// newScanStream sets up, unopened, the Scan stream of the anchor
// predicate p.
func (r *queryRun) newScanStream(p query.Pred) (*scanStream, error) {
	img, pos, err := r.scannedColumn(p)
	if err != nil {
		return nil, err
	}
	s := &scanStream{r: r, img: img, p: p, kind: img.Codec.Columns()[pos].Kind,
		dead: r.tok.deltaOf(p.Table), ov: r.columnOverlay(p.Table, p.ColIdx)}
	s.off, s.w = img.Codec.ColumnRange(pos)
	return s, nil
}

// open lends the stream's page and positions it before the first row.
func (s *scanStream) open() error {
	s.buf = s.r.lend()
	if err := s.img.initColumn(&s.col, s.ov, s.off, s.w, s.buf); err != nil {
		s.r.tok.releasePageBuf(s.buf)
		s.buf = nil
		return err
	}
	return nil
}

func (s *scanStream) next() (uint32, bool, error) {
	for {
		id, b, ok, err := s.row()
		if err != nil || !ok {
			return 0, false, err
		}
		if s.dead != nil && s.dead.Dead(id) {
			continue
		}
		v, err := schema.DecodeValue(b, s.kind)
		if err != nil {
			return 0, false, err
		}
		if matchValue(s.p, v) {
			return id, true, nil
		}
	}
}

// row reads the next row, booking a page load to the Scan span.
func (s *scanStream) row() (id uint32, b []byte, ok bool, err error) {
	if !s.col.rd.Loads() {
		return s.col.next()
	}
	err = s.r.col.Span(spanScan, func() error {
		var err error
		id, b, ok, err = s.col.next()
		return err
	})
	return id, b, ok, err
}

// close reads the image's remaining pages and returns the lent page.
func (s *scanStream) close() {
	if s.buf == nil {
		return
	}
	for {
		_, _, ok, err := s.row()
		if err != nil || !ok {
			s.err = err
			break
		}
	}
	s.r.tok.releasePageBuf(s.buf)
	s.buf = nil
}

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

// runStream streams one run from flash — ids (next) or fixed-width MJoin
// tuples (rd.NextRecord) — through one RAM buffer, which the stage that
// opens it claims, and, on the host, one page buffer borrowed from the
// token's free list.
//
//ghostdb:requires-slot
type runStream struct {
	rd  store.RunReader
	tok *Token
	buf []byte
}

// open sets s up over one sublist of records of width bytes (store.IDBytes
// for an id run), streaming through a page buffer borrowed from the
// token's free list, or through the one s still holds (a reader re-opened
// for each pass over a column); close returns it.
func (s *runStream) open(r *queryRun, sub sublist, width int) {
	if s.buf == nil {
		s.tok, s.buf = r.tok, r.lend()
	}
	sub.seg.InitRunReader(&s.rd, sub.run, width, s.buf)
}

func (s *runStream) next() (uint32, bool, error) { return s.rd.Next() }

func (s *runStream) close() {
	if s.buf != nil {
		s.tok.releasePageBuf(s.buf)
		s.buf = nil
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
// values order by tag. It backs the k-way union, the reduction's run set
// and the tuple cursor.
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
