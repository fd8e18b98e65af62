package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"ghostdb/internal/flash"
)

func testDev(t *testing.T) *flash.Device {
	t.Helper()
	return flash.MustDevice(flash.Params{PageSize: 256, PagesPerBlock: 8, Blocks: 2048, ReserveBlocks: 4})
}

func key8(v uint64) []byte {
	k := make([]byte, 8)
	binary.BigEndian.PutUint64(k, v)
	return k
}

func pay4(v uint32) []byte {
	p := make([]byte, 4)
	binary.BigEndian.PutUint32(p, v)
	return p
}

func bulkOf(t *testing.T, dev *flash.Device, keys []uint64) *Tree {
	t.Helper()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	entries := make([]Entry, len(keys))
	for i, k := range keys {
		entries[i] = Entry{Key: key8(k), Payload: pay4(uint32(k % 1000))}
	}
	tr, err := Bulk(dev, 8, 4, &SliceSource{Entries: entries})
	if err != nil {
		t.Fatalf("Bulk: %v", err)
	}
	return tr
}

func TestBulkAndLookup(t *testing.T) {
	dev := testDev(t)
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = uint64(i * 3)
	}
	tr := bulkOf(t, dev, keys)
	if tr.Count() != 5000 {
		t.Fatalf("count = %d", tr.Count())
	}
	if tr.Height() < 2 {
		t.Fatalf("height = %d, expected multi-level", tr.Height())
	}
	for _, k := range []uint64{0, 3, 7497, 14997} {
		p, err := tr.Lookup(key8(k))
		if err != nil {
			t.Fatalf("Lookup(%d): %v", k, err)
		}
		if binary.BigEndian.Uint32(p) != uint32(k%1000) {
			t.Fatalf("payload(%d) = %d", k, binary.BigEndian.Uint32(p))
		}
	}
	if _, err := tr.Lookup(key8(4)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	if _, err := tr.Lookup(key8(1 << 60)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("beyond max: %v", err)
	}
}

func TestSeekRangeScan(t *testing.T) {
	dev := testDev(t)
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(i * 10)
	}
	tr := bulkOf(t, dev, keys)
	// Scan [995, 2000]: first key >= 995 is 1000.
	cur, err := tr.Seek(key8(995))
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for {
		k, _, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok || binary.BigEndian.Uint64(k) > 2000 {
			break
		}
		got = append(got, binary.BigEndian.Uint64(k))
	}
	if len(got) != 101 || got[0] != 1000 || got[100] != 2000 {
		t.Fatalf("range scan got %d keys, first %v", len(got), got[:min(3, len(got))])
	}
}

func TestFullScanSorted(t *testing.T) {
	dev := testDev(t)
	rng := rand.New(rand.NewSource(3))
	keys := make([]uint64, 3000)
	for i := range keys {
		keys[i] = uint64(rng.Intn(1 << 30))
	}
	tr := bulkOf(t, dev, keys)
	cur, err := tr.First()
	if err != nil {
		t.Fatal(err)
	}
	var prev []byte
	n := 0
	for {
		k, _, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if prev != nil && bytes.Compare(prev, k) > 0 {
			t.Fatal("scan not sorted")
		}
		prev = append(prev[:0], k...)
		n++
	}
	if n != len(keys) {
		t.Fatalf("scanned %d of %d", n, len(keys))
	}
}

func TestInsertIntoBulk(t *testing.T) {
	dev := testDev(t)
	keys := make([]uint64, 2000)
	for i := range keys {
		keys[i] = uint64(i * 4)
	}
	tr := bulkOf(t, dev, keys)
	// Insert odd keys, forcing splits.
	for i := 0; i < 2000; i++ {
		k := uint64(i*4 + 1)
		if err := tr.Insert(key8(k), pay4(uint32(k%1000))); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	if tr.Count() != 4000 {
		t.Fatalf("count = %d", tr.Count())
	}
	for _, k := range []uint64{1, 4001, 7997, 0, 7996} {
		p, err := tr.Lookup(key8(k))
		if err != nil {
			t.Fatalf("Lookup(%d) after inserts: %v", k, err)
		}
		if binary.BigEndian.Uint32(p) != uint32(k%1000) {
			t.Fatalf("payload(%d) wrong", k)
		}
	}
}

func TestInsertFromEmpty(t *testing.T) {
	dev := testDev(t)
	tr, err := New(dev, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	want := map[uint64]bool{}
	for i := 0; i < 3000; i++ {
		k := uint64(rng.Intn(10000))
		_ = tr.Insert(key8(k), pay4(uint32(k)))
		want[k] = true
	}
	// Every inserted key findable; full scan sorted with correct count.
	for k := range want {
		if _, err := tr.Lookup(key8(k)); err != nil {
			t.Fatalf("Lookup(%d): %v", k, err)
		}
	}
	cur, _ := tr.First()
	n := 0
	var prev uint64
	for {
		k, _, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		v := binary.BigEndian.Uint64(k)
		if n > 0 && v < prev {
			t.Fatal("unsorted after inserts")
		}
		prev = v
		n++
	}
	if n != 3000 {
		t.Fatalf("scan count = %d (duplicates must be kept)", n)
	}
}

func TestDuplicateKeys(t *testing.T) {
	dev := testDev(t)
	entries := []Entry{
		{Key: key8(5), Payload: pay4(1)},
		{Key: key8(5), Payload: pay4(2)},
		{Key: key8(5), Payload: pay4(3)},
		{Key: key8(9), Payload: pay4(4)},
	}
	tr, err := Bulk(dev, 8, 4, &SliceSource{Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	cur, _ := tr.Seek(key8(5))
	count := 0
	for {
		k, _, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok || binary.BigEndian.Uint64(k) != 5 {
			break
		}
		count++
	}
	if count != 3 {
		t.Fatalf("duplicates seen = %d", count)
	}
}

func TestBulkRejectsUnsorted(t *testing.T) {
	dev := testDev(t)
	entries := []Entry{{Key: key8(5), Payload: pay4(1)}, {Key: key8(3), Payload: pay4(2)}}
	if _, err := Bulk(dev, 8, 4, &SliceSource{Entries: entries}); err == nil {
		t.Fatal("unsorted bulk accepted")
	}
}

func TestBulkEmpty(t *testing.T) {
	dev := testDev(t)
	tr, err := Bulk(dev, 8, 4, &SliceSource{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 0 || tr.Height() != 1 {
		t.Fatalf("empty tree: count=%d height=%d", tr.Count(), tr.Height())
	}
	if _, err := tr.Lookup(key8(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup in empty: %v", err)
	}
	cur, _ := tr.First()
	if _, _, ok, _ := cur.Next(); ok {
		t.Fatal("empty tree yielded an entry")
	}
}

func TestZeroPayload(t *testing.T) {
	dev := testDev(t)
	tr, err := Bulk(dev, 4, 0, &SliceSource{Entries: []Entry{{Key: pay4(1), Payload: nil}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Lookup(pay4(1)); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryErrors(t *testing.T) {
	dev := testDev(t)
	if _, err := New(dev, 0, 4); err == nil {
		t.Fatal("zero key width accepted")
	}
	if _, err := New(dev, 200, 200); err == nil {
		t.Fatal("entries larger than half a page accepted")
	}
	tr, _ := New(dev, 8, 4)
	if err := tr.Insert(key8(1), make([]byte, 9)); err == nil {
		t.Fatal("bad payload width accepted")
	}
}

func TestBulkMatchesSortedReferenceProperty(t *testing.T) {
	// Property: for arbitrary key multisets, a bulk-built tree scan
	// reproduces the sorted input and every key is findable.
	f := func(raw []uint16) bool {
		dev := flash.MustDevice(flash.Params{PageSize: 256, PagesPerBlock: 8, Blocks: 1024, ReserveBlocks: 4})
		keys := make([]uint64, len(raw))
		for i, r := range raw {
			keys[i] = uint64(r)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		entries := make([]Entry, len(keys))
		for i, k := range keys {
			entries[i] = Entry{Key: key8(k), Payload: pay4(uint32(i))}
		}
		tr, err := Bulk(dev, 8, 4, &SliceSource{Entries: entries})
		if err != nil {
			return false
		}
		cur, err := tr.First()
		if err != nil {
			return false
		}
		i := 0
		for {
			k, _, ok, err := cur.Next()
			if err != nil {
				return false
			}
			if !ok {
				break
			}
			if i >= len(keys) || binary.BigEndian.Uint64(k) != keys[i] {
				return false
			}
			i++
		}
		return i == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestSeekLandsBeforeDuplicateRunAcrossLeaves(t *testing.T) {
	// Regression: a duplicate run spanning a leaf split must be fully
	// visible from Seek (read-mode descent uses strict less-than).
	dev := testDev(t)
	tr, err := New(dev, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Fill one leaf, then insert many duplicates of a middle key to
	// force splits with equal keys on both sides.
	for i := 0; i < 15; i++ {
		_ = tr.Insert(key8(uint64(i*10)), pay4(uint32(i)))
	}
	for i := 0; i < 40; i++ {
		if err := tr.Insert(key8(70), pay4(uint32(1000+i))); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := tr.Seek(key8(70))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		k, _, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok || binary.BigEndian.Uint64(k) != 70 {
			break
		}
		count++
	}
	if count != 41 { // 1 original + 40 duplicates
		t.Fatalf("duplicates visible from Seek = %d, want 41", count)
	}
}

// scanEq seeks c to key and reads entries while they equal key plus the
// first one past them, as a climbing-index lookup does. It returns the
// entries read ("key/payload" strings) and the page reads spent.
func scanEq(t *testing.T, dev *flash.Device, c *Cursor, key uint64) ([]string, uint64) {
	t.Helper()
	before := dev.Counters().PageReads
	if err := c.Seek(key8(key)); err != nil {
		t.Fatal(err)
	}
	var got []string
	for {
		k, p, ok, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		v := binary.BigEndian.Uint64(k)
		got = append(got, fmt.Sprintf("%d/%d", v, binary.BigEndian.Uint32(p)))
		if v != key {
			break
		}
	}
	return got, dev.Counters().PageReads - before
}

func TestReusedSeekMatchesFreshProperty(t *testing.T) {
	// Property: one cursor re-seeked across a probe sequence returns, for
	// every key, what a fresh cursor returns, and never reads more pages.
	// Keys are even with runs of duplicates longer than a leaf (20
	// entries per 256-byte page), so odd probes fall between entries and
	// between leaves, and probes below 10 or above the maximum miss the
	// tree; some sequences insert between seeks, often the very key
	// about to be probed, which lands in the leaf the cursor holds.
	rng := rand.New(rand.NewSource(38))
	var reused, fresh uint64
	for trial := 0; trial < 200; trial++ {
		dev := flash.MustDevice(flash.Params{PageSize: 256, PagesPerBlock: 8, Blocks: 1024, ReserveBlocks: 4})
		var keys []uint64
		for v := uint64(10); len(keys) < 50+rng.Intn(1500); v += 2 {
			for r := 1 + rng.Intn(3)*rng.Intn(25); r > 0; r-- {
				keys = append(keys, v)
			}
		}
		entries := make([]Entry, len(keys))
		for i, k := range keys {
			entries[i] = Entry{Key: key8(k), Payload: pay4(uint32(i))}
		}
		tr, err := Bulk(dev, 8, 4, &SliceSource{Entries: entries})
		if err != nil {
			t.Fatal(err)
		}
		maxKey := keys[len(keys)-1]
		probes := make([]uint64, 1+rng.Intn(300))
		for i := range probes {
			probes[i] = uint64(rng.Intn(int(maxKey) + 20))
		}
		sorted, inserts := trial%2 == 0, trial%3 == 0
		if sorted {
			slices.Sort(probes)
		}
		c := tr.NewCursor(nil)
		for i, key := range probes {
			if inserts && rng.Intn(4) == 0 {
				at := key
				if rng.Intn(2) == 0 {
					at = uint64(rng.Intn(int(maxKey) + 20))
				}
				if err := tr.Insert(key8(at), pay4(uint32(100000+i))); err != nil {
					t.Fatal(err)
				}
			}
			got, r := scanEq(t, dev, c, key)
			want, f := scanEq(t, dev, tr.NewCursor(nil), key)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d (sorted %v, inserts %v), probe %d key %d:\n reused %v\n fresh  %v",
					trial, sorted, inserts, i, key, got, want)
			}
			if r > f {
				t.Fatalf("trial %d, probe %d key %d: reused cursor read %d pages, fresh %d", trial, i, key, r, f)
			}
			if sorted {
				reused, fresh = reused+r, fresh+f
			}
		}
	}
	// Sorted probes must actually reuse the held leaf.
	if reused*4 > fresh*3 {
		t.Fatalf("sorted probes read %d pages re-seeking one cursor, %d with fresh cursors", reused, fresh)
	}
}

func TestSeekAfterFailedDescentDescends(t *testing.T) {
	// A read error part-way down leaves an inner node in the cursor's
	// buffer; the next Seek must not take it for the leaf it held. The
	// injected root is an inner node whose single child is unmapped and
	// whose bytes, read as leaf entries, look like a leaf holding the
	// probed key with a wrong payload.
	dev := testDev(t)
	const base = 0x00F00000 // low 32 bits of every key: an unmapped page id
	keys := make([]uint64, 2000)
	for i := range keys {
		keys[i] = base + uint64(2*i)
	}
	tr := bulkOf(t, dev, keys)
	key := keys[1000]
	c := tr.NewCursor(nil)
	want, _ := scanEq(t, dev, c, key)

	img := make([]byte, dev.PageSize())
	for i := 0; leafHdr+(i+1)*12 <= len(img); i++ {
		k, p := tr.leafEntry(img, i)
		copy(k, key8(key-1+uint64(i)))
		copy(p, pay4(0xDEAD))
	}
	tr.initInternal(img, 1)
	bogus, err := dev.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Write(bogus, img); err != nil {
		t.Fatal(err)
	}
	root := tr.root
	tr.root = bogus
	if err := c.Seek(key8(keys[0])); err == nil {
		t.Fatal("descent through an unmapped child succeeded")
	}
	tr.root = root
	got, reads := scanEq(t, dev, c, key)
	if !slices.Equal(got, want) || reads == 0 {
		t.Fatalf("after a failed descent: %v in %d reads, want %v from a descent", got, reads, want)
	}
}
