package flash

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

func tinyParams() Params {
	return Params{PageSize: 64, PagesPerBlock: 4, Blocks: 8, ReserveBlocks: 2}
}

func TestWriteReadRoundtrip(t *testing.T) {
	d := MustDevice(tinyParams())
	id, err := d.Alloc()
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	data := []byte("hello flash page")
	if err := d.Write(id, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, len(data))
	if err := d.Read(id, got, len(data)); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("roundtrip mismatch: %q != %q", got, data)
	}
}

func TestWritePadsWithZeros(t *testing.T) {
	d := MustDevice(tinyParams())
	id, _ := d.Alloc()
	if err := d.Write(id, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	full := make([]byte, 64)
	if err := d.ReadFull(id, full); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 64; i++ {
		if full[i] != 0 {
			t.Fatalf("byte %d not zero-padded: %d", i, full[i])
		}
	}
}

func TestReadRange(t *testing.T) {
	d := MustDevice(tinyParams())
	id, _ := d.Alloc()
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i)
	}
	if err := d.Write(id, data); err != nil {
		t.Fatal(err)
	}
	before := d.Counters()
	got := make([]byte, 10)
	if err := d.ReadRange(id, got, 20, 10); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[20:30]) {
		t.Fatalf("range mismatch: %v", got)
	}
	delta := d.Counters().Sub(before)
	if delta.PageReads != 1 || delta.BytesToRAM != 10 {
		t.Fatalf("cost delta = %+v, want 1 read / 10 bytes", delta)
	}
}

func TestReadEdgeAccounting(t *testing.T) {
	d := MustDevice(tinyParams())
	id, _ := d.Alloc()
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i)
	}
	if err := d.Write(id, data); err != nil {
		t.Fatal(err)
	}

	// offset+n landing exactly on the page boundary is legal and charges
	// exactly n transferred bytes.
	before := d.Counters()
	got := make([]byte, 14)
	if err := d.ReadRange(id, got, 50, 14); err != nil {
		t.Fatalf("boundary range: %v", err)
	}
	if !bytes.Equal(got, data[50:64]) {
		t.Fatalf("boundary range mismatch: %v", got)
	}
	if delta := d.Counters().Sub(before); delta.PageReads != 1 || delta.BytesToRAM != 14 {
		t.Fatalf("boundary cost = %+v, want 1 read / 14 bytes", delta)
	}
	// One past the boundary is rejected without counter movement.
	before = d.Counters()
	if err := d.ReadRange(id, got, 51, 14); err == nil {
		t.Fatal("range past page boundary accepted")
	}
	if d.Counters() != before {
		t.Fatal("failed range moved counters")
	}

	// Zero-length reads are validated no-ops: no page load, no bytes.
	before = d.Counters()
	if err := d.Read(id, nil, 0); err != nil {
		t.Fatalf("zero-length Read: %v", err)
	}
	if err := d.ReadRange(id, nil, 64, 0); err != nil {
		t.Fatalf("zero-length ReadRange at boundary: %v", err)
	}
	if err := d.ReadMulti([]ReadReq{{ID: id, N: 0}}); err != nil {
		t.Fatalf("zero-length ReadMulti: %v", err)
	}
	if d.Counters() != before {
		t.Fatalf("zero-length reads moved counters: %+v", d.Counters().Sub(before))
	}
	// ...but an unmapped page still fails even for zero bytes.
	if err := d.Read(PageID(999), nil, 0); !errors.Is(err, ErrBadPage) {
		t.Fatalf("zero-length read of bad page = %v", err)
	}

	// Read-after-Free is ErrBadPage with no counter movement.
	if err := d.Free(id); err != nil {
		t.Fatal(err)
	}
	before = d.Counters()
	if err := d.Read(id, got, 4); !errors.Is(err, ErrBadPage) {
		t.Fatalf("read-after-Free = %v", err)
	}
	if err := d.ReadRange(id, got, 0, 4); !errors.Is(err, ErrBadPage) {
		t.Fatalf("range-after-Free = %v", err)
	}
	if d.Counters() != before {
		t.Fatal("read-after-Free moved counters")
	}
}

func TestReadMultiParity(t *testing.T) {
	// A coalesced batch must charge exactly what the equivalent sequence
	// of Read calls charges, and a batch with any invalid request must
	// leave the counters untouched.
	a := MustDevice(tinyParams())
	b := MustDevice(tinyParams())
	var idsA, idsB []PageID
	for i := 0; i < 3; i++ {
		pa, _ := a.Alloc()
		pb, _ := b.Alloc()
		data := bytes.Repeat([]byte{byte(i + 1)}, 64)
		if err := a.Write(pa, data); err != nil {
			t.Fatal(err)
		}
		if err := b.Write(pb, data); err != nil {
			t.Fatal(err)
		}
		idsA, idsB = append(idsA, pa), append(idsB, pb)
	}
	ns := []int{64, 64, 10} // partial last page, as SeqReader issues
	var reqs []ReadReq
	single := make([][]byte, 3)
	batched := make([][]byte, 3)
	for i := range ns {
		single[i] = make([]byte, ns[i])
		batched[i] = make([]byte, ns[i])
		reqs = append(reqs, ReadReq{ID: idsB[i], Dst: batched[i], N: ns[i]})
	}
	beforeA, beforeB := a.Counters(), b.Counters()
	for i := range ns {
		if err := a.Read(idsA[i], single[i], ns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.ReadMulti(reqs); err != nil {
		t.Fatal(err)
	}
	dA, dB := a.Counters().Sub(beforeA), b.Counters().Sub(beforeB)
	if dA != dB {
		t.Fatalf("batched cost %+v != sequential cost %+v", dB, dA)
	}
	for i := range ns {
		if !bytes.Equal(single[i], batched[i]) {
			t.Fatalf("page %d content mismatch", i)
		}
	}
	before := b.Counters()
	bad := append(append([]ReadReq(nil), reqs...), ReadReq{ID: PageID(999), N: 1, Dst: make([]byte, 1)})
	if err := b.ReadMulti(bad); !errors.Is(err, ErrBadPage) {
		t.Fatalf("bad batch = %v", err)
	}
	if b.Counters() != before {
		t.Fatal("failed batch moved counters")
	}
}

func TestOutOfPlaceUpdate(t *testing.T) {
	d := MustDevice(tinyParams())
	id, _ := d.Alloc()
	if err := d.Write(id, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(id, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	if err := d.Read(id, got, 2); err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2" {
		t.Fatalf("got %q after update", got)
	}
	if d.Counters().PageWrites != 2 {
		t.Fatalf("writes = %d, want 2", d.Counters().PageWrites)
	}
}

func TestGarbageCollectionReclaimsSpace(t *testing.T) {
	d := MustDevice(tinyParams()) // 32 physical pages, capacity 24
	id, _ := d.Alloc()
	// Rewrite the same logical page many more times than there are
	// physical pages; GC must reclaim invalidated pages.
	for i := 0; i < 500; i++ {
		if err := d.Write(id, []byte{byte(i)}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	got := make([]byte, 1)
	if err := d.Read(id, got, 1); err != nil {
		t.Fatal(err)
	}
	if want := byte(499 % 256); got[0] != want {
		t.Fatalf("final value %d, want %d", got[0], want)
	}
	if d.Counters().BlockErases == 0 {
		t.Fatal("expected block erases under write pressure")
	}
}

func TestGCPreservesOtherPages(t *testing.T) {
	d := MustDevice(tinyParams())
	keep := make(map[PageID]byte)
	for i := 0; i < 10; i++ {
		id, err := d.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(id, []byte{byte(100 + i)}); err != nil {
			t.Fatal(err)
		}
		keep[id] = byte(100 + i)
	}
	churn, _ := d.Alloc()
	for i := 0; i < 300; i++ {
		if err := d.Write(churn, []byte{byte(i)}); err != nil {
			t.Fatalf("churn write %d: %v", i, err)
		}
	}
	for id, want := range keep {
		got := make([]byte, 1)
		if err := d.Read(id, got, 1); err != nil {
			t.Fatalf("read %d: %v", id, err)
		}
		if got[0] != want {
			t.Fatalf("page %d corrupted by GC: got %d want %d", id, got[0], want)
		}
	}
	if d.MaxWear() == 0 {
		t.Fatal("expected wear to be recorded")
	}
}

func TestDeviceFull(t *testing.T) {
	d := MustDevice(tinyParams())
	var ids []PageID
	for {
		id, err := d.Alloc()
		if err != nil {
			if !errors.Is(err, ErrDeviceFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		if err := d.Write(id, []byte{1}); err != nil {
			t.Fatalf("write: %v", err)
		}
		ids = append(ids, id)
	}
	if len(ids) != d.Capacity() {
		t.Fatalf("allocated %d pages, capacity %d", len(ids), d.Capacity())
	}
	// Freeing makes room again.
	if err := d.Free(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Alloc(); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
}

func TestFreeRecyclesLogicalIDs(t *testing.T) {
	d := MustDevice(tinyParams())
	a, _ := d.Alloc()
	if err := d.Write(a, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(a); err != nil {
		t.Fatal(err)
	}
	b, _ := d.Alloc()
	if a != b {
		t.Fatalf("expected recycled id %d, got %d", a, b)
	}
	// Reading a recycled-but-unwritten page must fail.
	buf := make([]byte, 1)
	if err := d.Read(b, buf, 1); !errors.Is(err, ErrBadPage) {
		t.Fatalf("read of unwritten page: %v", err)
	}
}

func TestInvalidOperations(t *testing.T) {
	d := MustDevice(tinyParams())
	buf := make([]byte, 8)
	if err := d.Read(InvalidPage, buf, 1); !errors.Is(err, ErrBadPage) {
		t.Fatalf("read invalid page: %v", err)
	}
	if err := d.Write(999, []byte{1}); !errors.Is(err, ErrBadPage) {
		t.Fatalf("write unallocated: %v", err)
	}
	id, _ := d.Alloc()
	if err := d.Write(id, make([]byte, 65)); !errors.Is(err, ErrShortWrite) {
		t.Fatalf("oversized write: %v", err)
	}
	d.Close()
	if _, err := d.Alloc(); !errors.Is(err, ErrDeviceClose) {
		t.Fatalf("alloc after close: %v", err)
	}
}

func TestCountersSubAdd(t *testing.T) {
	a := Counters{PageReads: 10, PageWrites: 5, BlockErases: 1, BytesToRAM: 100, GCPageMoves: 2}
	b := Counters{PageReads: 4, PageWrites: 2, BytesToRAM: 40}
	diff := a.Sub(b)
	if diff.PageReads != 6 || diff.PageWrites != 3 || diff.BytesToRAM != 60 {
		t.Fatalf("sub = %+v", diff)
	}
	sum := diff.Add(b)
	if sum != a {
		t.Fatalf("add/sub not inverse: %+v != %+v", sum, a)
	}
}

func TestBadParams(t *testing.T) {
	for _, p := range []Params{
		{},
		{PageSize: 64, PagesPerBlock: 4, Blocks: 2, ReserveBlocks: 2},
		{PageSize: 64, PagesPerBlock: 4, Blocks: 4, ReserveBlocks: 0},
	} {
		if _, err := NewDevice(p); err == nil {
			t.Fatalf("params %+v accepted", p)
		}
	}
}

// TestRelocationKeepsEveryPage is the FTL regression of PR 12: 1 000 live
// pages on a 40-block device rewritten at random, so the collector has to
// relocate valid pages out of its victims; every page must read back its
// own last content after every write. Before the fix the copy could be
// programmed into the victim block itself and wiped by the erase.
func TestRelocationKeepsEveryPage(t *testing.T) {
	d := MustDevice(Params{PageSize: 64, PagesPerBlock: 32, Blocks: 40, ReserveBlocks: 4})
	const live = 1000
	ids := make([]PageID, live)
	want := make([]uint32, live)
	buf := make([]byte, 8)
	write := func(i int, v uint32) {
		binary.BigEndian.PutUint32(buf, uint32(i))
		binary.BigEndian.PutUint32(buf[4:], v)
		if err := d.Write(ids[i], buf); err != nil {
			t.Fatalf("write %d of page %d (%d relocations so far): %v", v, i, d.Counters().GCPageMoves, err)
		}
		want[i] = v
	}
	for i := range ids {
		id, err := d.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		write(i, 0)
	}
	rng := rand.New(rand.NewSource(12))
	for w := uint32(1); w <= 5000; w++ {
		write(rng.Intn(live), w)
		for i, id := range ids {
			if err := d.Read(id, buf, 8); err != nil {
				t.Fatalf("after write %d: read page %d: %v", w, i, err)
			}
			if gi, gv := binary.BigEndian.Uint32(buf), binary.BigEndian.Uint32(buf[4:]); int(gi) != i || gv != want[i] {
				t.Fatalf("after write %d (%d relocations): page %d holds page %d's version %d, want version %d",
					w, d.Counters().GCPageMoves, i, gi, gv, want[i])
			}
		}
	}
	c := d.Counters()
	if c.GCPageMoves == 0 {
		t.Fatal("no valid page was relocated: the device is too large to exercise the collector")
	}
	if d.PagesUsed() != live {
		t.Fatalf("%d pages mapped, want %d", d.PagesUsed(), live)
	}
}

// TestDeadBlocksGiveTheirBufferBack: a block left without a valid page
// drops its host buffer (at most ReserveBlocks are kept for reuse), and a
// page later programmed into a recycled buffer reads back zero-padded.
func TestDeadBlocksGiveTheirBufferBack(t *testing.T) {
	p := Params{PageSize: 64, PagesPerBlock: 4, Blocks: 16, ReserveBlocks: 2}
	d := MustDevice(p)
	full := bytes.Repeat([]byte{0xff}, p.PageSize)
	var ids []PageID
	for i := 0; i < 6*p.PagesPerBlock; i++ {
		id, err := d.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(id, full); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if err := d.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	held := 0
	for _, b := range d.data {
		if b != nil {
			held++
		}
	}
	if held != 0 || len(d.spare) != p.ReserveBlocks {
		t.Fatalf("%d dead blocks still hold a buffer, %d spares kept (want 0 and %d)", held, len(d.spare), p.ReserveBlocks)
	}
	id, _ := d.Alloc()
	if err := d.Write(id, []byte{7}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, p.PageSize)
	if err := d.ReadFull(id, got); err != nil {
		t.Fatal(err)
	}
	if want := append([]byte{7}, make([]byte, p.PageSize-1)...); !bytes.Equal(got, want) {
		t.Fatalf("page in a recycled buffer reads %v", got)
	}
}
