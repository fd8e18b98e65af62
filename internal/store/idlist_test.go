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
		if !slices.Equal(l.seg.pages, ref.pages) || l.Bytes() != ref.Bytes() {
			t.Fatalf("seed %d: pages %v (%d bytes), reference %v (%d bytes)",
				seed, l.seg.pages, l.Bytes(), ref.pages, ref.Bytes())
		}
		if !slices.EqualFunc(image(t, &l.seg), image(t, ref), bytes.Equal) {
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
