package store

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"ghostdb/internal/flash"
	"ghostdb/internal/schema"
)

func testDev(t *testing.T) *flash.Device {
	t.Helper()
	return flash.MustDevice(flash.Params{PageSize: 256, PagesPerBlock: 8, Blocks: 512, ReserveBlocks: 4})
}

func TestSegmentAppendReadAt(t *testing.T) {
	dev := testDev(t)
	s := NewSegment(dev)
	var all []byte
	for i := 0; i < 100; i++ {
		chunk := bytes.Repeat([]byte{byte(i)}, 37)
		if err := s.Append(chunk); err != nil {
			t.Fatal(err)
		}
		all = append(all, chunk...)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if s.Bytes() != len(all) {
		t.Fatalf("Bytes = %d, want %d", s.Bytes(), len(all))
	}
	// Read a range spanning several pages.
	got := make([]byte, 700)
	if err := s.ReadAt(got, 100, 700); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, all[100:800]) {
		t.Fatal("cross-page ReadAt mismatch")
	}
	if err := s.Append([]byte{1}); err == nil {
		t.Fatal("append after seal accepted")
	}
	used := dev.PagesUsed()
	if err := s.Free(); err != nil {
		t.Fatal(err)
	}
	if dev.PagesUsed() != used-(len(all)+255)/256 {
		t.Fatalf("pages not freed: %d -> %d", used, dev.PagesUsed())
	}
}

func TestSegmentReadPastEnd(t *testing.T) {
	dev := testDev(t)
	s := NewSegment(dev)
	_ = s.Append(make([]byte, 10))
	_ = s.Seal()
	if err := s.ReadAt(make([]byte, 300), 0, 300); err == nil {
		t.Fatal("read past end accepted")
	}
}

func TestCodecRoundtripProperty(t *testing.T) {
	cols := []schema.Column{
		{Name: "a", Kind: schema.KindInt},
		{Name: "b", Kind: schema.KindFloat},
		{Name: "c", Kind: schema.KindChar, Width: 12},
	}
	c := NewCodec(cols)
	if c.Width() != 8+8+12 {
		t.Fatalf("width = %d", c.Width())
	}
	f := func(i int64, fl float64, raw uint64) bool {
		if fl != fl { // NaN
			return true
		}
		s := ""
		for raw > 0 && len(s) < 12 {
			s += string(rune('a' + raw%26))
			raw /= 26
		}
		row := schema.Row{schema.IntVal(i), schema.FloatVal(fl), schema.CharVal(s)}
		buf := make([]byte, c.Width())
		if err := c.Encode(buf, row); err != nil {
			return false
		}
		back, err := c.Decode(buf)
		if err != nil {
			return false
		}
		return back[0].I == i && back[1].Float() == fl && back[2].S == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCodecErrors(t *testing.T) {
	c := NewCodec([]schema.Column{{Name: "a", Kind: schema.KindInt}})
	buf := make([]byte, c.Width())
	if err := c.Encode(buf, schema.Row{}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := c.DecodeColumn(buf[:2], 0); err == nil {
		t.Fatal("short record accepted")
	}
	off, w := c.ColumnRange(0)
	if off != 0 || w != 8 {
		t.Fatalf("column range = %d,%d", off, w)
	}
}

func TestRowFileRoundtrip(t *testing.T) {
	dev := testDev(t)
	const rowW = 20
	f, err := NewRowFile(dev, rowW)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		rec := make([]byte, rowW)
		binary.BigEndian.PutUint32(rec, uint32(i*7))
		if err := f.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	// Random access.
	rec := make([]byte, rowW)
	for _, id := range []uint32{0, 13, 99} {
		if err := f.ReadRow(id, rec); err != nil {
			t.Fatal(err)
		}
		if got := binary.BigEndian.Uint32(rec); got != id*7 {
			t.Fatalf("row %d = %d", id, got)
		}
	}
	if err := f.ReadRow(n, rec); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	// Sequential scan sees every row once, in order.
	sr := f.NewSeqReader()
	count := 0
	for {
		r, id, ok, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if got := binary.BigEndian.Uint32(r); got != id*7 {
			t.Fatalf("seq row %d = %d", id, got)
		}
		count++
	}
	if count != n {
		t.Fatalf("seq count = %d", count)
	}
}

// TestInitSeqReaderReusesCallerPage: one reader re-initialised over two
// files streams each from record 0 through the caller's page buffer,
// and reads each file's pages once, as NewSeqReader's reader does.
func TestInitSeqReaderReusesCallerPage(t *testing.T) {
	dev := testDev(t)
	var files []*RowFile
	for _, n := range []int{37, 5} {
		f, _ := NewRowFile(dev, 12)
		for i := 0; i < n; i++ {
			rec := make([]byte, 12)
			binary.BigEndian.PutUint32(rec, uint32(1000*n+i))
			f.Append(rec)
		}
		f.Seal()
		files = append(files, f)
	}
	buf := make([]byte, dev.PageSize())
	var rd SeqReader
	for _, f := range files {
		dev.ResetCounters()
		f.InitSeqReader(&rd, buf)
		n := 0
		for {
			rec, id, ok, err := rd.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if &rec[0] != &buf[int(id)%(256/12)*12] {
				t.Fatal("record not served from the caller's page")
			}
			if got := binary.BigEndian.Uint32(rec); got != uint32(1000*f.Count())+id {
				t.Fatalf("row %d = %d", id, got)
			}
			n++
		}
		c := dev.Counters()
		if n != f.Count() || c.PageReads != uint64(f.Pages()) || c.BytesToRAM != uint64(f.Count()*12) {
			t.Fatalf("read %d of %d rows in %d reads (%d B), want %d pages (%d B)",
				n, f.Count(), c.PageReads, c.BytesToRAM, f.Pages(), f.Count()*12)
		}
	}
}

func TestRowFileSortedReaderPageEconomy(t *testing.T) {
	dev := testDev(t)
	f, _ := NewRowFile(dev, 16) // 16 rows per 256B page
	for i := 0; i < 160; i++ {
		f.Append(make([]byte, 16))
	}
	f.Seal()
	dev.ResetCounters()
	r := f.NewSortedReader()
	buf := make([]byte, 16)
	// 10 ids on the same page: one page read only.
	for i := 0; i < 10; i++ {
		if err := r.Read(uint32(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := dev.Counters().PageReads; got != 1 {
		t.Fatalf("page reads = %d, want 1", got)
	}
	// Descending access must be rejected.
	if err := r.Read(5, buf); err == nil {
		t.Fatal("descending id accepted")
	}
}

func TestRowFileInsertAfterSeal(t *testing.T) {
	dev := testDev(t)
	f, _ := NewRowFile(dev, 16)
	for i := 0; i < 20; i++ {
		rec := make([]byte, 16)
		binary.BigEndian.PutUint32(rec, uint32(i))
		f.Append(rec)
	}
	f.Seal()
	for i := 20; i < 40; i++ {
		rec := make([]byte, 16)
		binary.BigEndian.PutUint32(rec, uint32(i))
		if err := f.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	rec := make([]byte, 16)
	for i := uint32(0); i < 40; i++ {
		if err := f.ReadRow(i, rec); err != nil {
			t.Fatal(err)
		}
		if got := binary.BigEndian.Uint32(rec); got != i {
			t.Fatalf("row %d = %d after inserts", i, got)
		}
	}
}

func TestRowFileBadWidths(t *testing.T) {
	dev := testDev(t)
	if _, err := NewRowFile(dev, 0); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := NewRowFile(dev, 1000); err == nil {
		t.Fatal("over-page width accepted")
	}
	f, _ := NewRowFile(dev, 8)
	if err := f.Append(make([]byte, 7)); err == nil {
		t.Fatal("short record accepted")
	}
}

func TestIDListRunsAndReaders(t *testing.T) {
	dev := testDev(t)
	l := NewListSegment(dev)
	rng := rand.New(rand.NewSource(7))
	var runs []Run
	var want [][]uint32
	for r := 0; r < 10; r++ {
		n := rng.Intn(300)
		ids := make([]uint32, n)
		v := uint32(0)
		for i := range ids {
			v += uint32(rng.Intn(5) + 1)
			ids[i] = v
		}
		run, err := l.AppendRun(ids)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
		want = append(want, ids)
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	for i, run := range runs {
		got, err := l.ReadAll(run)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want[i]) {
			t.Fatalf("run %d: len %d != %d", i, len(got), len(want[i]))
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("run %d[%d]: %d != %d", i, j, got[j], want[i][j])
			}
		}
	}
}

func TestRunReaderPageEconomy(t *testing.T) {
	dev := testDev(t) // 256B pages -> 64 ids per page
	l := NewListSegment(dev)
	ids := make([]uint32, 640)
	for i := range ids {
		ids[i] = uint32(i)
	}
	run, _ := l.AppendRun(ids)
	l.Seal()
	dev.ResetCounters()
	rd := l.NewRunReader(run)
	for {
		_, ok, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if got := dev.Counters().PageReads; got != 10 {
		t.Fatalf("page reads = %d, want 10", got)
	}
	if run.Pages(256) != 10 {
		t.Fatalf("Run.Pages = %d", run.Pages(256))
	}
}

func TestListSegmentStateErrors(t *testing.T) {
	dev := testDev(t)
	l := NewListSegment(dev)
	if err := l.Add(1); err == nil {
		t.Fatal("Add outside run accepted")
	}
	if _, err := l.EndRun(); err == nil {
		t.Fatal("EndRun without BeginRun accepted")
	}
	if err := l.BeginRun(); err != nil {
		t.Fatal(err)
	}
	if err := l.BeginRun(); err == nil {
		t.Fatal("nested BeginRun accepted")
	}
}

func TestEmptyRun(t *testing.T) {
	dev := testDev(t)
	l := NewListSegment(dev)
	run, err := l.AppendRun(nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.Count != 0 || run.Pages(256) != 0 {
		t.Fatalf("empty run = %+v", run)
	}
	got, err := l.ReadAll(run)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty run read = %v, %v", got, err)
	}
}

func TestSegmentReopenPreservesOffsets(t *testing.T) {
	dev := testDev(t)
	s := NewSegment(dev)
	if err := s.Append(bytes.Repeat([]byte{7}, 300)); err != nil { // 1.2 pages
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(bytes.Repeat([]byte{9}, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if s.Bytes() != 400 {
		t.Fatalf("bytes = %d", s.Bytes())
	}
	got := make([]byte, 400)
	if err := s.ReadAt(got, 0, 400); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if got[i] != 7 {
			t.Fatalf("byte %d = %d, want 7", i, got[i])
		}
	}
	for i := 300; i < 400; i++ {
		if got[i] != 9 {
			t.Fatalf("byte %d = %d, want 9", i, got[i])
		}
	}
	// Reopen of an exactly-page-aligned segment.
	s2 := NewSegment(dev)
	_ = s2.Append(make([]byte, 256))
	_ = s2.Seal()
	if err := s2.Reopen(); err != nil {
		t.Fatal(err)
	}
	_ = s2.Append([]byte{1})
	_ = s2.Seal()
	if s2.Bytes() != 257 {
		t.Fatalf("aligned reopen bytes = %d", s2.Bytes())
	}
}

func TestSeqReaderReadAheadParity(t *testing.T) {
	// A read-ahead scan must return the same records and charge exactly
	// the same counters as the classic one-page-at-a-time scan,
	// including the partial last page.
	mk := func() (*flash.Device, *RowFile) {
		dev := testDev(t)
		f, _ := NewRowFile(dev, 24) // 10 rows per 256B page
		for i := 0; i < 157; i++ {  // partial last page
			rec := make([]byte, 24)
			binary.BigEndian.PutUint32(rec, uint32(i*3))
			if err := f.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Seal(); err != nil {
			t.Fatal(err)
		}
		dev.ResetCounters()
		return dev, f
	}
	devA, fA := mk()
	devB, fB := mk()
	plain := fA.NewSeqReader()
	var inflight atomic.Int64
	ahead := fB.NewSeqReader()
	staging := [][]byte{make([]byte, 256), make([]byte, 256), make([]byte, 256)}
	ahead.SetReadAhead(3, staging, &inflight)
	for i := 0; ; i++ {
		ra, ida, oka, erra := plain.Next()
		rb, idb, okb, errb := ahead.Next()
		if erra != nil || errb != nil {
			t.Fatal(erra, errb)
		}
		if oka != okb || ida != idb || !bytes.Equal(ra, rb) {
			t.Fatalf("row %d diverged: ok %v/%v id %d/%d", i, oka, okb, ida, idb)
		}
		if !oka {
			break
		}
	}
	if devA.Counters() != devB.Counters() {
		t.Fatalf("read-ahead counters %+v != plain %+v", devB.Counters(), devA.Counters())
	}
	if inflight.Load() != 0 {
		t.Fatalf("inflight gauge = %d after full drain", inflight.Load())
	}
	// Depth below 2 or undersized staging must leave classic mode on.
	r := fB.NewSeqReader()
	r.SetReadAhead(1, staging, nil)
	if r.ra != nil {
		t.Fatal("depth 1 should not enable read-ahead")
	}
	r.SetReadAhead(2, [][]byte{make([]byte, 8), make([]byte, 8)}, nil)
	if r.ra != nil {
		t.Fatal("undersized staging should not enable read-ahead")
	}
}
