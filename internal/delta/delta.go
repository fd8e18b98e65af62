// Package delta is the secure-side write path: a per-table LSM-style
// delta that turns UPDATE and DELETE into append-only work on the
// write-once flash the paper's NAND model already imposes.
//
// The base image of a table (its hidden-column RowFile) is immutable
// once loaded; every DML statement appends fixed-width delta records to
// one of the table's two logs — header-only tombstones (DELETE) to the
// tombstone log, whole-row upserts (hidden SET) to the upsert log — and
// keeps an in-RAM overlay (latest row image per updated id, plus the
// tombstone set) that readers consult after every base-image access.
// Row ids are dense and positional, so a tombstone never frees an id
// and an upsert never moves a row: the merge at read time is a pure
// per-id lookup, which is what keeps the multi-pass exec operators'
// access patterns (and therefore their cost model) intact. The two logs
// commute: a deleted id never revives and the read path never hands a
// dead id to an UPDATE, so a tombstone wins whatever the upsert log
// holds for its id.
//
// Leak argument. The untrusted observer sees flash traffic volume, not
// content. Every record of a log is the same width (a pad carries a
// zeroed body), and a statement's commit pads its final page of the log
// matching its kind — the statement text's kind, DELETE or hidden SET —
// with pad records, so the statement writes a whole number of pages
// there, at least one even when it matched nothing. The only thing
// write volume reveals is the page count of the statement's batch, a
// coarse bound the statement text (which GhostDB's model already
// reveals) gives away anyway; it never reveals *which* rows matched,
// nor, through which log grows, whether any did. A reading statement
// replays whole files (Refresh), chosen by the statement text and the
// SET texts since the last compaction: the tombstone checkpoint and the
// tombstone log for liveness always, the upsert log too when the
// statement reads a hidden column some committed hidden SET named since
// the last compaction, or is itself a hidden SET and an earlier one
// named a column it does not overwrite. The table keeps that list of
// named columns (NoteSets, SetColumns); it is recorded from statement
// text whether or not any row matched, so it is public. An upsert's row
// differs from its base row only in those columns, so a statement that
// reads none of them loses nothing by skipping the upsert log. Each
// file's length is a function of committed statement volume and of the
// compactions that wrote the checkpoint, all of which the observer
// already saw written, so the read is a data-independent sequential
// scan.
package delta

import (
	"encoding/binary"
	"maps"
	"slices"

	"ghostdb/internal/flash"
	"ghostdb/internal/store"
)

// Record kinds. A pad record fills the tail of a statement's final page
// so commits are page-aligned; it carries no data.
const (
	kindPad       = 0
	kindTombstone = 1
	kindUpsert    = 2
)

// headerBytes is the fixed per-record header: 1 kind byte + 4 id bytes.
const headerBytes = 1 + store.IDBytes

// RecordBytes is the width of a log record carrying an image of
// imageBytes: a tombstone's is 0, an upsert's the table's hidden row.
// With the page size it fixes how many pages a statement's commit
// writes, which the planner prices.
func RecordBytes(imageBytes int) int { return headerBytes + imageBytes }

// batchLog is one append-only log of fixed-width records, written a
// statement's batch at a time. It is kept unsealed: commit pads every
// batch to a page boundary, so the RowFile's one-page append buffer is
// always empty between statements and the log flushes exactly the
// batch's whole pages, once.
type batchLog struct {
	file   *store.RowFile
	rec    []byte // the record being staged
	staged int    // records staged by the current statement
}

func newBatchLog(dev *flash.Device, width int) (batchLog, error) {
	f, err := store.NewRowFile(dev, width)
	if err != nil {
		return batchLog{}, err
	}
	return batchLog{file: f, rec: make([]byte, width)}, nil
}

// stage appends one record to the current batch: the header, then
// image zero-filled to the record's width.
func (l *batchLog) stage(kind byte, id uint32, image []byte) error {
	l.rec[0] = kind
	binary.BigEndian.PutUint32(l.rec[1:], id)
	clear(l.rec[headerBytes:])
	copy(l.rec[headerBytes:], image)
	l.staged++
	return l.file.Append(l.rec)
}

// commit ends the current batch: pad records fill the rest of the final
// page, so the batch hits flash as a whole number of pages — at least
// one, even for a statement that staged nothing.
func (l *batchLog) commit(pageSize int) error {
	perPage := pageSize / l.file.RowWidth()
	pad := (perPage - l.file.Count()%perPage) % perPage
	if l.staged == 0 {
		pad = perPage // zero-match statements still write one full page
	}
	for i := 0; i < pad; i++ {
		if err := l.stage(kindPad, 0, nil); err != nil {
			return err
		}
	}
	l.staged = 0
	return nil
}

// Table is the live delta state of one table: the flash-resident logs
// and the in-RAM merge overlay rebuilt from them. All methods must run
// with the owning token's execution slot held; the type is hidden state
// and must never be mentioned by untrusted-side packages.
//
//ghostdb:hidden
type Table struct {
	dev  *flash.Device
	rowW int // hidden image row width; 0 for tables with no hidden columns

	// tombLog holds DELETE batches of header-only tombstones; upsertLog
	// holds hidden-SET batches of a header plus the whole row image.
	tombLog, upsertLog batchLog

	dirty map[uint32][]byte // id -> latest upserted hidden row image
	tombs map[uint32]bool   // id -> deleted

	// sets lists, ascending, the columns hidden-SET statements have named
	// since the last compaction: every overlay row differs from its base
	// row in these columns only.
	sets []int

	// checkpoint persists the tombstone set across compactions: the logs
	// are recreated empty, but deletions are forever (ids are positional
	// and never reused), so the surviving tombstones move here.
	checkpoint *store.RowFile
}

// NewTable creates empty delta logs for a table whose hidden image rows
// are rowWidth bytes (0 when the table has no hidden columns).
func NewTable(dev *flash.Device, rowWidth int) (*Table, error) {
	t := &Table{
		dev:   dev,
		rowW:  rowWidth,
		dirty: make(map[uint32][]byte),
		tombs: make(map[uint32]bool),
	}
	if err := t.resetLogs(); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *Table) resetLogs() error {
	var err error
	if t.tombLog, err = newBatchLog(t.dev, headerBytes); err != nil {
		return err
	}
	t.upsertLog, err = newBatchLog(t.dev, headerBytes+t.rowW)
	return err
}

// StageTombstone appends a tombstone for id to the current statement's
// batch and marks the overlay. Idempotent per id.
func (t *Table) StageTombstone(id uint32) error {
	if t.tombs[id] {
		return nil
	}
	t.tombs[id] = true
	delete(t.dirty, id)
	return t.tombLog.stage(kindTombstone, id, nil)
}

// StageUpsert appends a whole-row upsert for id (rec is the new hidden
// row image, copied) and installs it in the overlay.
func (t *Table) StageUpsert(id uint32, rec []byte) error {
	cp := make([]byte, t.rowW)
	copy(cp, rec)
	t.dirty[id] = cp
	return t.upsertLog.stage(kindUpsert, id, cp)
}

// NoteSets records the hidden columns (the caller's column numbers) a
// hidden-SET statement names, before it stages any upsert, whether or
// not a row will match; it reports whether the list grew.
func (t *Table) NoteSets(cols []int) bool {
	grew := false
	for _, c := range cols {
		if i, ok := slices.BinarySearch(t.sets, c); !ok {
			t.sets = slices.Insert(t.sets, i, c)
			grew = true
		}
	}
	return grew
}

// SetColumns returns a copy of the columns hidden-SET statements have
// named since the last compaction, ascending.
func (t *Table) SetColumns() []int { return slices.Clone(t.sets) }

// Commit ends a hidden-SET statement's batch in the upsert log, padded
// to whole pages: at least one, even for a statement that staged
// nothing.
func (t *Table) Commit() error { return t.upsertLog.commit(t.dev.PageSize()) }

// CommitDeletes ends a DELETE statement's batch in the tombstone log,
// padded like Commit's.
func (t *Table) CommitDeletes() error { return t.tombLog.commit(t.dev.PageSize()) }

// Depth reports the live depth of both logs in flash pages — what the
// token's compaction threshold counts.
func (t *Table) Depth() int { return t.tombLog.file.Pages() + t.upsertLog.file.Pages() }

// DirtyCount reports how many ids currently carry an upsert overlay.
func (t *Table) DirtyCount() int { return len(t.dirty) }

// TombCount reports how many ids are tombstoned.
func (t *Table) TombCount() int { return len(t.tombs) }

// Lookup returns the overlay row image for id, if the id was upserted
// since the last compaction.
func (t *Table) Lookup(id uint32) ([]byte, bool) {
	rec, ok := t.dirty[id]
	return rec, ok
}

// Dead reports whether id is tombstoned.
func (t *Table) Dead(id uint32) bool { return t.tombs[id] }

// reads lists the files a statement's Refresh replays: the tombstone
// checkpoint and log (liveness), and the upsert log too (images) when
// the statement text and the SET texts since the last compaction call
// for it (see the package comment).
func (t *Table) reads(images bool) []*store.RowFile {
	fs := make([]*store.RowFile, 0, 3)
	if t.checkpoint != nil {
		fs = append(fs, t.checkpoint)
	}
	fs = append(fs, t.tombLog.file)
	if images {
		fs = append(fs, t.upsertLog.file)
	}
	return fs
}

// ReadSize reports the flash pages Refresh(images) reads and the bytes
// those reads move into RAM.
func (t *Table) ReadSize(images bool) (pages, bytes int) {
	for _, f := range t.reads(images) {
		pages += f.Pages()
		bytes += f.Count() * f.RowWidth()
	}
	return pages, bytes
}

// Refresh replays the files a statement needs (reads) through one
// sequential metered read over the caller's page buffer buf — the
// per-query price of the LSM merge. The overlay is already
// memory-resident; what Refresh models (and charges to the session's
// cost) is the read amplification a real token would pay to rebuild the
// part of it the statement consults: the upsert log only when images,
// which is chosen by the statement text and the SET texts since the
// last compaction, so a statement replays only the log it consults.
func (t *Table) Refresh(images bool, buf []byte) error {
	var rd store.SeqReader
	for _, f := range t.reads(images) {
		f.InitSeqReader(&rd, buf)
		for {
			_, _, ok, err := rd.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
		}
	}
	return nil
}

// Reset is the compaction epilogue: the overlay has been folded into a
// fresh base image, so upserts and the list of SET columns are dropped,
// the old logs' pages are
// freed, and the surviving tombstone set is checkpointed to flash in
// ascending id order (ids never revive, so tombstones outlive every
// compaction), so equal histories write equal pages.
func (t *Table) Reset() error {
	if err := t.tombLog.file.Free(); err != nil {
		return err
	}
	if err := t.upsertLog.file.Free(); err != nil {
		return err
	}
	if t.checkpoint != nil {
		if err := t.checkpoint.Free(); err != nil {
			return err
		}
		t.checkpoint = nil
	}
	if len(t.tombs) > 0 {
		ck, err := store.NewRowFile(t.dev, headerBytes)
		if err != nil {
			return err
		}
		rec := make([]byte, headerBytes)
		for _, id := range slices.Sorted(maps.Keys(t.tombs)) {
			rec[0] = kindTombstone
			binary.BigEndian.PutUint32(rec[1:], id)
			if err := ck.Append(rec); err != nil {
				return err
			}
		}
		if err := ck.Seal(); err != nil {
			return err
		}
		t.checkpoint = ck
	}
	t.dirty = make(map[uint32][]byte)
	t.sets = nil
	return t.resetLogs()
}
