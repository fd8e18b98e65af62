package flash

import (
	"bytes"
	"fmt"
	"testing"
)

// stridedPage writes a page of distinct bytes i+1 (never 0xFF) and
// returns the device, the page and its content.
func stridedPage(t testing.TB) (*Device, PageID, []byte) {
	d := MustDevice(tinyParams())
	id, err := d.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, d.PageSize())
	for i := range data {
		data[i] = byte(i + 1)
	}
	if err := d.Write(id, data); err != nil {
		t.Fatal(err)
	}
	return d, id, data
}

// checkStrided runs one strided read into a 0xFF-filled destination and
// checks the counter rule: a call that fails moves no counter and no
// byte; one that succeeds charges one page load and count*n bytes
// (nothing when count or n is 0), copies each span to its own offset and
// leaves every other byte of dst as it was. Spans inside the page that
// do not overlap must succeed; spans past the page or overlapping must
// fail. It returns the call's error.
func checkStrided(t testing.TB, d *Device, id PageID, page []byte, dstLen, off, n, stride, count int) error {
	t.Helper()
	dst := bytes.Repeat([]byte{0xFF}, dstLen)
	before := d.Counters()
	err := d.ReadStrided(id, dst, off, n, stride, count)
	got := d.Counters().Sub(before)
	ps := len(page)
	valid := off >= 0 && n >= 0 && count >= 0
	if valid && n > 0 && count > 0 {
		overlap := count > 1 && stride < n
		inPage := off <= ps && n <= ps && count <= ps && (count == 1 || stride <= ps)
		end := off + n
		if inPage && count > 1 {
			end += (count - 1) * stride
		}
		inPage = inPage && end <= ps
		valid = !overlap && inPage && end <= dstLen
		if overlap || !inPage {
			if err == nil {
				t.Fatalf("off %d n %d stride %d count %d: spans past the page or overlapping read without error", off, n, stride, count)
			}
		}
	}
	if err != nil {
		if valid && n > 0 && count > 0 {
			t.Fatalf("off %d n %d stride %d count %d: valid spans failed: %v", off, n, stride, count, err)
		}
		if got != (Counters{}) {
			t.Fatalf("off %d n %d stride %d count %d: failed read moved counters %+v", off, n, stride, count, got)
		}
		if !bytes.Equal(dst, bytes.Repeat([]byte{0xFF}, dstLen)) {
			t.Fatalf("off %d n %d stride %d count %d: failed read wrote dst", off, n, stride, count)
		}
		return err
	}
	want := Counters{}
	if n > 0 && count > 0 {
		want = Counters{PageReads: 1, BytesToRAM: uint64(count * n)}
	}
	if got != want {
		t.Fatalf("off %d n %d stride %d count %d: counters %+v, want %+v", off, n, stride, count, got, want)
	}
	inSpan := make([]bool, dstLen)
	for i := 0; n > 0 && i < count; i++ {
		for b := off + i*stride; b < off+i*stride+n; b++ {
			inSpan[b] = true
		}
	}
	for b := range dst {
		if inSpan[b] && dst[b] != page[b] || !inSpan[b] && dst[b] != 0xFF {
			t.Fatalf("off %d n %d stride %d count %d: dst[%d] = %#x", off, n, stride, count, b, dst[b])
		}
	}
	return nil
}

// TestReadStrided: one column of a page of 8-byte records costs one page
// load and the column's bytes; the rest of dst keeps its content; bad
// arguments fail without moving a counter; a zero count or width is a
// free no-op.
func TestReadStrided(t *testing.T) {
	d, id, page := stridedPage(t)
	ps := d.PageSize()
	ok := []struct{ off, n, stride, count int }{
		{2, 3, 8, 8},   // a 3-byte column of eight 8-byte rows
		{0, 8, 8, 8},   // every byte: the whole page
		{5, 1, 10, 6},  // ends exactly at byte 56
		{60, 4, 8, 1},  // one span at the page's end
		{0, 64, 0, 1},  // one span, stride unused
		{7, 0, 8, 8},   // n = 0: free
		{7, 3, 8, 0},   // count = 0: free
		{0, 0, 0, 0},   // both
		{63, 1, 64, 1}, // the last byte
	}
	for _, c := range ok {
		if err := checkStrided(t, d, id, page, ps, c.off, c.n, c.stride, c.count); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
	}
	bad := []struct{ dstLen, off, n, stride, count int }{
		{ps, 2, 3, 8, 9},       // the ninth span passes the page
		{ps, 2, 3, 2, 4},       // overlapping spans
		{ps, -1, 3, 8, 2},      // negative offset
		{ps, 2, -3, 8, 2},      // negative width
		{ps, 2, 3, 8, -1},      // negative count
		{ps, 62, 4, 8, 1},      // one span past the page
		{ps, 2, 3, -8, 2},      // negative stride
		{20, 2, 3, 8, 8},       // dst too small
		{ps, 0, 1, 1 << 40, 2}, // stride overflow
	}
	for _, c := range bad {
		if err := checkStrided(t, d, id, page, c.dstLen, c.off, c.n, c.stride, c.count); err == nil {
			t.Fatalf("%+v: no error", c)
		}
	}
	before := d.Counters()
	if err := d.ReadStrided(id+1, make([]byte, ps), 0, 1, 8, 8); err == nil {
		t.Fatal("read of an unmapped page succeeded")
	}
	if d.Counters() != before {
		t.Fatal("read of an unmapped page moved counters")
	}
}

// FuzzStridedRead: over random offsets, widths, strides, counts and
// destination sizes a strided read never panics and keeps the counter
// rule checkStrided states.
func FuzzStridedRead(f *testing.F) {
	f.Add(2, 3, 8, 8, 64)
	f.Add(0, 64, 64, 1, 64)
	f.Add(60, 4, 8, 2, 64)
	f.Add(1, 2, 1, 3, 64)
	f.Add(0, 0, 0, 0, 0)
	f.Add(-1, 1, 1, 1, 64)
	f.Add(0, 1, -1<<62, 3, 64)
	f.Fuzz(func(t *testing.T, off, n, stride, count, dstLen int) {
		dstLen = max(min(dstLen, 256), 0)
		d, id, page := stridedPage(t)
		_ = checkStrided(t, d, id, page, dstLen, off, n, stride, count)
	})
}

// checkGather runs one gather read into a 0xFF-filled destination and
// checks it against the rule stated independently of the device: the
// read is valid when off and n are non-negative, the slots strictly
// ascending and non-negative, and, unless n or the slot list is empty,
// the stride at least n once a slot past 0 is read and the last slot's
// span inside both the page and dst. A valid read charges one page load
// and len(slots)*n bytes (nothing when empty), copies each listed span
// to its own offset and leaves every other byte of dst as it was; an
// invalid one fails, moving no counter and no byte. It returns the
// call's error.
func checkGather(t testing.TB, d *Device, id PageID, page []byte, dstLen, off, n, stride int, slots []int) error {
	t.Helper()
	dst := bytes.Repeat([]byte{0xFF}, dstLen)
	before := d.Counters()
	err := d.ReadGather(id, dst, off, n, stride, slots)
	got := d.Counters().Sub(before)
	ps := len(page)
	valid := off >= 0 && n >= 0
	for i, s := range slots {
		valid = valid && s >= 0 && (i == 0 || s > slots[i-1])
	}
	moves := valid && n > 0 && len(slots) > 0
	if moves {
		last := slots[len(slots)-1]
		valid = (last == 0 || stride >= n && stride <= ps) && last <= ps && off <= ps && n <= ps
		valid = valid && off+n+last*stride <= min(ps, dstLen)
	}
	what := func() string {
		return fmt.Sprintf("off %d n %d stride %d slots %v dst %d", off, n, stride, slots, dstLen)
	}
	if err != nil {
		if valid {
			t.Fatalf("%s: valid gather failed: %v", what(), err)
		}
		if got != (Counters{}) {
			t.Fatalf("%s: failed gather moved counters %+v", what(), got)
		}
		if !bytes.Equal(dst, bytes.Repeat([]byte{0xFF}, dstLen)) {
			t.Fatalf("%s: failed gather wrote dst", what())
		}
		return err
	}
	if !valid {
		t.Fatalf("%s: invalid gather read without error", what())
	}
	want := Counters{}
	if moves {
		want = Counters{PageReads: 1, BytesToRAM: uint64(len(slots) * n)}
	}
	if got != want {
		t.Fatalf("%s: counters %+v, want %+v", what(), got, want)
	}
	inSpan := make([]bool, dstLen)
	for _, s := range slots {
		for b := off + s*stride; b < off+s*stride+n; b++ {
			inSpan[b] = true
		}
	}
	for b := range dst {
		if inSpan[b] && dst[b] != page[b] || !inSpan[b] && dst[b] != 0xFF {
			t.Fatalf("%s: dst[%d] = %#x", what(), b, dst[b])
		}
	}
	return nil
}

// TestReadGather: three 8-byte records of a page of eight cost one page
// load and 24 bytes; the other records' bytes of dst keep their content;
// unsorted, duplicate or negative slots, spans past the page and a short
// dst fail without moving a counter; an empty slot list is a free no-op.
func TestReadGather(t *testing.T) {
	d, id, page := stridedPage(t)
	ps := d.PageSize()
	ok := []struct {
		off, n, stride int
		slots          []int
	}{
		{0, 8, 8, []int{1, 4, 7}}, // three whole records
		{2, 3, 8, []int{0, 7}},    // a column of the first and last
		{0, 64, 0, []int{0}},      // slot 0 alone: stride unused
		{0, 8, 8, nil},            // no slots: free
		{0, 0, 8, []int{2, 3}},    // n = 0: free
		{56, 8, 8, []int{0}},      // one span at the page's end
	}
	for _, c := range ok {
		if err := checkGather(t, d, id, page, ps, c.off, c.n, c.stride, c.slots); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
	}
	bad := []struct {
		dstLen, off, n, stride int
		slots                  []int
	}{
		{ps, 0, 8, 8, []int{4, 1}},  // unsorted
		{ps, 0, 8, 8, []int{3, 3}},  // duplicate
		{ps, 0, 8, 8, []int{-1, 2}}, // negative slot
		{ps, 0, 8, 8, []int{8}},     // the ninth record passes the page
		{ps, 0, 8, 4, []int{0, 2}},  // stride below n
		{ps, -1, 8, 8, []int{1}},    // negative offset
		{40, 0, 8, 8, []int{2, 5}},  // dst too small
		{ps, 0, 8, 8, []int{9, 2}},  // unsorted, the first slot past the page
		{ps, 0, 0, 8, []int{2, 2}},  // duplicate with n = 0
	}
	for _, c := range bad {
		if err := checkGather(t, d, id, page, c.dstLen, c.off, c.n, c.stride, c.slots); err == nil {
			t.Fatalf("%+v: no error", c)
		}
	}
	before := d.Counters()
	if err := d.ReadGather(id+1, make([]byte, ps), 0, 8, 8, []int{1}); err == nil {
		t.Fatal("gather from an unmapped page succeeded")
	}
	if d.Counters() != before {
		t.Fatal("gather from an unmapped page moved counters")
	}
}

// FuzzGatherRead: over random offsets, widths, strides, slot lists
// (each byte a signed slot, so lists come unsorted, duplicated and
// negative too) and destination sizes a gather read never panics and
// keeps the rule checkGather states.
func FuzzGatherRead(f *testing.F) {
	f.Add(0, 8, 8, 64, []byte{1, 4, 7})
	f.Add(2, 3, 8, 64, []byte{0, 7})
	f.Add(0, 8, 8, 64, []byte{4, 1})
	f.Add(0, 8, 8, 64, []byte{3, 3})
	f.Add(0, 8, 8, 40, []byte{2, 5})
	f.Add(0, 1, 1<<40, 64, []byte{0, 2})
	f.Add(0, 8, 8, 64, []byte{0xFF})
	f.Fuzz(func(t *testing.T, off, n, stride, dstLen int, raw []byte) {
		dstLen = max(min(dstLen, 256), 0)
		var slots []int
		for _, b := range raw[:min(len(raw), 80)] {
			slots = append(slots, int(int8(b)))
		}
		d, id, page := stridedPage(t)
		_ = checkGather(t, d, id, page, dstLen, off, n, stride, slots)
	})
}
