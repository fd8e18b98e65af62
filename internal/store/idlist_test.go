package store

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"ghostdb/internal/flash"
)

// The id list's fast paths — Add writing straight into the page buffer,
// RunReader decoding from its page window — must be invisible: the
// flash image is the one 4-byte Segment.Append records write, and a
// reader touches exactly the pages Run.Pages promises.

// idListOp is one step of a random id-list history: append a run, or
// Seal and Reopen the segment first.
type idListOp struct {
	reopen bool
	ids    []uint32
}

// randomIDListHistory draws back-to-back runs: empty ones, short ones
// that start mid-page, and ones spanning several pages, some after a
// Seal + Reopen. pageIDs is the ids one page holds.
func randomIDListHistory(rng *rand.Rand, pageIDs int) []idListOp {
	var ops []idListOp
	for i := rng.Intn(12) + 1; i > 0; i-- {
		var n int
		switch rng.Intn(4) {
		case 0:
			n = 0
		case 1:
			n = rng.Intn(pageIDs)
		case 2:
			n = pageIDs - 1 + rng.Intn(3)
		default:
			n = rng.Intn(5 * pageIDs)
		}
		ids := make([]uint32, n)
		v := uint32(rng.Intn(1000))
		for j := range ids {
			v += uint32(rng.Intn(50) + 1)
			ids[j] = v
		}
		ops = append(ops, idListOp{reopen: rng.Intn(3) == 0, ids: ids})
	}
	return ops
}

// image reads every page a segment holds, in order.
func image(t *testing.T, s *Segment) [][]byte {
	t.Helper()
	var out [][]byte
	for _, p := range s.pages {
		buf := make([]byte, s.PageSize())
		if err := s.dev.ReadFull(p, buf); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf)
	}
	return out
}

func TestIDListFastPathsProperty(t *testing.T) {
	params := flash.Params{PageSize: 256, PagesPerBlock: 8, Blocks: 512, ReserveBlocks: 4}
	pageIDs := params.PageSize / IDBytes
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := randomIDListHistory(rng, pageIDs)

		// The list under test, and the reference written as 4-byte
		// records through Segment.Append on an identical device. On odd
		// seeds the list assembles its pages in a caller's buffer (Init),
		// which the caller scribbles over once Seal has handed it back.
		dev, refDev := flash.MustDevice(params), flash.MustDevice(params)
		l, ref := NewListSegment(dev), NewSegment(refDev)
		var lent []byte
		if seed%2 == 1 {
			lent = make([]byte, params.PageSize)
			l.Init(dev, lent)
		}
		scribble := func() {
			for i := range lent {
				lent[i] = 0xff
			}
		}
		var runs []Run
		for _, op := range ops {
			if op.reopen {
				for _, err := range []error{l.Seal(), l.Reopen(), ref.Seal(), ref.Reopen()} {
					if err != nil {
						t.Fatal(err)
					}
					scribble()
				}
			}
			run, err := l.AppendRun(op.ids)
			if err != nil {
				t.Fatal(err)
			}
			if run.Off != ref.Bytes() || run.Count != len(op.ids) {
				t.Fatalf("seed %d: run %+v, reference at byte %d with %d ids", seed, run, ref.Bytes(), len(op.ids))
			}
			for _, id := range op.ids {
				if err := ref.Append(binary.BigEndian.AppendUint32(nil, id)); err != nil {
					t.Fatal(err)
				}
			}
			runs = append(runs, run)
		}
		if err := l.Seal(); err != nil {
			t.Fatal(err)
		}
		scribble()
		if err := ref.Seal(); err != nil {
			t.Fatal(err)
		}
		if got, want := dev.Counters(), refDev.Counters(); got != want {
			t.Fatalf("seed %d: writing cost %+v, reference %+v", seed, got, want)
		}
		if !slices.Equal(l.Segment.pages, ref.pages) || l.Bytes() != ref.Bytes() {
			t.Fatalf("seed %d: pages %v (%d bytes), reference %v (%d bytes)",
				seed, l.Segment.pages, l.Bytes(), ref.pages, ref.Bytes())
		}
		if !slices.EqualFunc(image(t, &l.Segment), image(t, ref), bytes.Equal) {
			t.Fatalf("seed %d: flash image differs from the 4-byte Append image", seed)
		}

		for i, run := range runs {
			dev.ResetCounters()
			rd := l.NewRunReader(run)
			var got []uint32
			for {
				v, ok, err := rd.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				got = append(got, v)
			}
			if !slices.Equal(got, ops[i].ids) {
				t.Fatalf("seed %d run %d %+v: read %v, wrote %v", seed, i, run, got, ops[i].ids)
			}
			if reads := dev.Counters().PageReads; reads != uint64(run.Pages(params.PageSize)) {
				t.Fatalf("seed %d run %d %+v: %d page reads, Run.Pages %d", seed, i, run, reads, run.Pages(params.PageSize))
			}
			if _, ok, err := rd.Next(); ok || err != nil {
				t.Fatalf("seed %d run %d: Next after the end = %v, %v", seed, i, ok, err)
			}
		}
	}
}

// windowReader is the reference for RunReader's record reads: the
// final join's former tuple reader. It keeps a window of the segment and
// refills it, whenever the next record is not wholly inside, with one
// ReadAt from the record's offset to the end of the page holding its
// last byte (or to the end of the run).
type windowReader struct {
	seg        *Segment
	off, end   int
	w          int
	buf        []byte
	lo, loaded int
}

func newWindowReader(seg *Segment, run Run, w int) *windowReader {
	return &windowReader{seg: seg, off: run.Off, end: run.Off + run.Count*w, w: w,
		buf: make([]byte, w+seg.PageSize()), lo: -1}
}

func (s *windowReader) next() ([]byte, bool, error) {
	if s.off >= s.end {
		return nil, false, nil
	}
	if s.lo < 0 || s.off+s.w > s.lo+s.loaded {
		ps := s.seg.PageSize()
		wend := min(((s.off+s.w-1)/ps+1)*ps, s.end)
		s.loaded = wend - s.off
		if err := s.seg.ReadAt(s.buf[:s.loaded], s.off, s.loaded); err != nil {
			return nil, false, err
		}
		s.lo = s.off
	}
	t := s.buf[s.off-s.lo : s.off-s.lo+s.w]
	s.off += s.w
	return t, true, nil
}

// readStep is one read of a run: the record (empty at the end) and the
// flash counters it cost.
type readStep struct {
	rec  string
	cost flash.Counters
}

// TestRunReaderMatchesWindowReaderProperty holds RunReader to the
// reference window reader over random runs of records whose widths do
// and do not divide the page (and exceed it), starting at offsets
// aligned to the width and not: every read must return the same record
// and cost the same flash counters, the read past the end included.
// Width-4 runs are also read as ids through Next, the id fast path.
func TestRunReaderMatchesWindowReaderProperty(t *testing.T) {
	params := flash.Params{PageSize: 256, PagesPerBlock: 8, Blocks: 512, ReserveBlocks: 4}
	widths := []int{1, 4, 8, 16, 32, 64, 256, 3, 5, 12, 20, 36, 100, 255, 257, 600}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := widths[rng.Intn(len(widths))]
		off := w * rng.Intn(8)
		if rng.Intn(2) == 1 {
			off = rng.Intn(3 * params.PageSize)
		}
		count := rng.Intn(4*params.PageSize/w + 3)
		dev := flash.MustDevice(params)
		seg := NewSegment(dev)
		data := make([]byte, off+count*w+rng.Intn(params.PageSize))
		rng.Read(data)
		if err := seg.Append(data); err != nil {
			t.Fatal(err)
		}
		if err := seg.Seal(); err != nil {
			t.Fatal(err)
		}
		run := Run{Off: off, Count: count}

		// steps reads the run to its end and one read beyond it.
		steps := func(read func() ([]byte, bool, error)) []readStep {
			var out []readStep
			for {
				dev.ResetCounters()
				rec, ok, err := read()
				if err != nil {
					t.Fatalf("seed %d (width %d, run %+v): %v", seed, w, run, err)
				}
				out = append(out, readStep{rec: string(rec), cost: dev.Counters()})
				if !ok {
					return out
				}
			}
		}
		ref := newWindowReader(seg, run, w)
		want := steps(ref.next)

		var rd RunReader
		seg.InitRunReader(&rd, run, w, make([]byte, params.PageSize))
		dst := make([]byte, w)
		got := steps(func() ([]byte, bool, error) {
			ok, err := rd.NextRecord(dst)
			if !ok {
				return nil, ok, err
			}
			return dst, ok, err
		})
		if len(got) != count+1 || !slices.Equal(got, want) {
			t.Fatalf("seed %d (width %d, run %+v): %d reads, reference %d, or a record or its cost differs",
				seed, w, run, len(got), len(want))
		}
		for i, st := range want[:count] {
			if st.rec != string(data[off+i*w:off+(i+1)*w]) {
				t.Fatalf("seed %d (width %d, run %+v): record %d is not the one written", seed, w, run, i)
			}
		}
		if w == IDBytes {
			seg.InitRunReader(&rd, run, w, make([]byte, params.PageSize))
			ids := steps(func() ([]byte, bool, error) {
				v, ok, err := rd.Next()
				if !ok {
					return nil, ok, err
				}
				return binary.BigEndian.AppendUint32(nil, v), ok, err
			})
			if !slices.Equal(ids, want) {
				t.Fatalf("seed %d (run %+v): Next reads differ from the reference's records or cost", seed, run)
			}
		}
	}
}
