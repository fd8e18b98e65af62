package delta

import (
	"bytes"
	"slices"
	"testing"

	"ghostdb/internal/flash"
)

func newDev(t *testing.T) *flash.Device {
	t.Helper()
	dev, err := flash.NewDevice(flash.Params{PageSize: 512, PagesPerBlock: 8, Blocks: 256, ReserveBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// TestCommitPadsToWholePages: every statement's batch lands in the log
// of its kind as a whole number of pages, and a statement that staged
// nothing still writes one full pad page there — the write volume
// depends on the batch's record count, never on what the records say.
// Tombstones are header-only, so a tombstone page holds more records
// than an upsert page.
func TestCommitPadsToWholePages(t *testing.T) {
	const rowW = 30
	dl, err := NewTable(newDev(t), rowW)
	if err != nil {
		t.Fatal(err)
	}
	if got := dl.Depth(); got != 0 {
		t.Fatalf("fresh log depth = %d, want 0", got)
	}
	commit := func(what string, stage func(i int) error, n int, c func() error, want int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := stage(i); err != nil {
				t.Fatal(err)
			}
		}
		if err := c(); err != nil {
			t.Fatal(err)
		}
		if got := dl.Depth(); got != want {
			t.Fatalf("%s: depth = %d, want %d", what, got, want)
		}
	}
	next := uint32(7)
	tomb := func(int) error { next++; return dl.StageTombstone(next) }
	row := bytes.Repeat([]byte{0xab}, rowW)
	upsert := func(i int) error { return dl.StageUpsert(uint32(1000+i), row) }

	// A one-record statement and a statement filling several pages pad
	// to the same boundary rule: ceil(staged/perPage) pages each.
	tombsPerPage, upsertsPerPage := 512/headerBytes, 512/(headerBytes+rowW)
	commit("one tombstone", tomb, 1, dl.CommitDeletes, 1)
	commit("one upsert", upsert, 1, dl.Commit, 2)
	commit("a page of tombstones and one more", tomb, tombsPerPage+1, dl.CommitDeletes, 4)
	commit("a page of upserts and one more", upsert, upsertsPerPage+1, dl.Commit, 6)
	if got, _ := dl.ReadSize(false); got != 3 {
		t.Fatalf("tombstone log holds %d pages, want 3", got)
	}
}

// TestZeroMatchPadsItsOwnLog: a DELETE and a hidden UPDATE that matched
// nothing each write one pad page, to the log of the statement's kind,
// so neither which log grows nor by how much depends on matches; Depth
// counts both logs.
func TestZeroMatchPadsItsOwnLog(t *testing.T) {
	dl, err := NewTable(newDev(t), 20)
	if err != nil {
		t.Fatal(err)
	}
	sizes := func() [2]int {
		live, _ := dl.ReadSize(false)
		all, _ := dl.ReadSize(true)
		return [2]int{live, all - live}
	}
	if err := dl.CommitDeletes(); err != nil {
		t.Fatal(err)
	}
	if got := sizes(); got != [2]int{1, 0} || dl.Depth() != 1 {
		t.Fatalf("zero-match DELETE: tombstone/upsert pages %v, depth %d; want [1 0], 1", got, dl.Depth())
	}
	if err := dl.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := sizes(); got != [2]int{1, 1} || dl.Depth() != 2 {
		t.Fatalf("zero-match UPDATE: tombstone/upsert pages %v, depth %d; want [1 1], 2", got, dl.Depth())
	}
}

// TestLivenessReadLoadsCheckpointAndTombstones: a liveness Refresh reads
// exactly the tombstone checkpoint's and the tombstone log's pages and
// bytes, an images Refresh the upsert log's too, all through the
// caller's one page buffer; ReadSize predicts both.
func TestLivenessReadLoadsCheckpointAndTombstones(t *testing.T) {
	const rowW = 24
	dev := newDev(t)
	dl, err := NewTable(dev, rowW)
	if err != nil {
		t.Fatal(err)
	}
	batch := func(first, n int) {
		for i := 0; i < n; i++ {
			if err := dl.StageTombstone(uint32(first + i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := dl.CommitDeletes(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := dl.StageUpsert(uint32(5000+first+i), make([]byte, rowW)); err != nil {
				t.Fatal(err)
			}
		}
		if err := dl.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	batch(0, 250) // checkpointed by the compaction below
	if err := dl.Reset(); err != nil {
		t.Fatal(err)
	}
	batch(1000, 40)
	ck := dl.checkpoint
	if ck == nil || ck.Pages() != 3 {
		t.Fatalf("checkpoint = %v, want 250 tombstones on 3 pages", ck)
	}
	tombs, ups := dl.tombLog.file, dl.upsertLog.file
	buf := make([]byte, dev.PageSize())
	for _, images := range []bool{false, true} {
		wantPages := ck.Pages() + tombs.Pages()
		wantBytes := (ck.Count() + tombs.Count()) * headerBytes
		if images {
			wantPages += ups.Pages()
			wantBytes += ups.Count() * (headerBytes + rowW)
		}
		if p, b := dl.ReadSize(images); p != wantPages || b != wantBytes {
			t.Fatalf("images=%v: ReadSize = %d pages, %d B; want %d, %d", images, p, b, wantPages, wantBytes)
		}
		dev.ResetCounters()
		if err := dl.Refresh(images, buf); err != nil {
			t.Fatal(err)
		}
		c := dev.Counters()
		if c.PageReads != uint64(wantPages) || c.BytesToRAM != uint64(wantBytes) || c.PageWrites != 0 {
			t.Fatalf("images=%v: Refresh read %d pages, %d B (wrote %d); want %d, %d",
				images, c.PageReads, c.BytesToRAM, c.PageWrites, wantPages, wantBytes)
		}
	}
}

// TestOverlaySemantics: upserts are visible via Lookup until a tombstone
// hides the id; tombstones are idempotent and permanent across Reset,
// while upsert overlays (folded into the base by compaction) are not.
func TestOverlaySemantics(t *testing.T) {
	const rowW = 16
	dl, err := NewTable(newDev(t), rowW)
	if err != nil {
		t.Fatal(err)
	}
	row := bytes.Repeat([]byte{0x11}, rowW)
	if err := dl.StageUpsert(3, row); err != nil {
		t.Fatal(err)
	}
	got, ok := dl.Lookup(3)
	if !ok || !bytes.Equal(got, row) {
		t.Fatalf("Lookup(3) = %v,%v after upsert", got, ok)
	}
	// The stored image is a copy: mutating the caller's slice must not
	// reach the overlay.
	row[0] = 0x99
	if got, _ := dl.Lookup(3); got[0] != 0x11 {
		t.Fatal("overlay aliases the caller's row slice")
	}

	if err := dl.StageTombstone(3); err != nil {
		t.Fatal(err)
	}
	if err := dl.StageTombstone(3); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, ok := dl.Lookup(3); ok {
		t.Fatal("tombstoned id still has an upsert overlay")
	}
	if !dl.Dead(3) || dl.TombCount() != 1 {
		t.Fatalf("Dead(3)=%v TombCount=%d, want true/1", dl.Dead(3), dl.TombCount())
	}
	if err := dl.StageUpsert(5, bytes.Repeat([]byte{0x22}, rowW)); err != nil {
		t.Fatal(err)
	}
	if err := dl.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := dl.CommitDeletes(); err != nil {
		t.Fatal(err)
	}
	if err := dl.Refresh(true, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}

	if err := dl.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := dl.Depth(); got != 0 {
		t.Fatalf("post-Reset depth = %d, want 0", got)
	}
	if dl.DirtyCount() != 0 {
		t.Fatal("upsert overlay survived compaction Reset")
	}
	if !dl.Dead(3) {
		t.Fatal("tombstone lost across compaction Reset")
	}
	// Ids never revive: re-tombstoning after Reset stays consistent.
	if err := dl.StageTombstone(3); err != nil {
		t.Fatal(err)
	}
	if dl.TombCount() != 1 {
		t.Fatalf("TombCount = %d after re-tombstone, want 1", dl.TombCount())
	}
}

// TestCheckpointIsDeterministic: two tables given the same history —
// deletions over two compactions, in a scattered id order — leave
// checkpoints with byte-identical pages, their tombstones in ascending
// id order.
func TestCheckpointIsDeterministic(t *testing.T) {
	const rowW = 8
	history := func() []byte {
		dl, err := NewTable(newDev(t), rowW)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			for i := 0; i < 150; i++ {
				if err := dl.StageTombstone(uint32((i*97 + round*31) % 1000)); err != nil {
					t.Fatal(err)
				}
			}
			if err := dl.CommitDeletes(); err != nil {
				t.Fatal(err)
			}
			if err := dl.Reset(); err != nil {
				t.Fatal(err)
			}
		}
		ck := dl.checkpoint
		if ck == nil || ck.Count() != dl.TombCount() {
			t.Fatalf("checkpoint %v, want %d tombstones", ck, dl.TombCount())
		}
		var img []byte
		rec := make([]byte, headerBytes)
		for id := 0; id < ck.Count(); id++ {
			if err := ck.ReadRow(uint32(id), rec); err != nil {
				t.Fatal(err)
			}
			img = append(img, rec...)
		}
		return img
	}
	a, b := history(), history()
	if !bytes.Equal(a, b) {
		t.Fatal("equal histories left different checkpoint pages")
	}
	for i := headerBytes; i < len(a); i += headerBytes {
		if bytes.Compare(a[i-headerBytes+1:i], a[i+1:i+headerBytes]) >= 0 {
			t.Fatalf("checkpoint record %d is not above its predecessor", i/headerBytes)
		}
	}
}

// TestSetColumnsFollowTextUntilReset: NoteSets records the SET columns
// once each, ascending, reports whether the list grew, and needs no
// staged row (a zero-match SET records its columns too); SetColumns
// hands out a copy; Reset forgets the list with the upserts.
func TestSetColumnsFollowTextUntilReset(t *testing.T) {
	dl, err := NewTable(newDev(t), 20)
	if err != nil {
		t.Fatal(err)
	}
	if got := dl.SetColumns(); len(got) != 0 {
		t.Fatalf("fresh table set columns %v", got)
	}
	if !dl.NoteSets([]int{7, 3}) || dl.NoteSets([]int{3}) || !dl.NoteSets([]int{5, 7}) {
		t.Fatal("NoteSets misreports growth")
	}
	if err := dl.Commit(); err != nil {
		t.Fatal(err)
	}
	got := dl.SetColumns()
	if want := []int{3, 5, 7}; !slices.Equal(got, want) {
		t.Fatalf("set columns %v, want %v", got, want)
	}
	got[0] = 99
	if dl.SetColumns()[0] != 3 {
		t.Fatal("SetColumns exposes the table's own list")
	}
	if err := dl.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := dl.SetColumns(); len(got) != 0 {
		t.Fatalf("set columns %v after Reset, want none", got)
	}
}
