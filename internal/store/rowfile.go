package store

import (
	"fmt"
	"sync/atomic"

	"ghostdb/internal/flash"
)

// RowFile stores fixed-width records addressed by their dense surrogate
// identifier: record i lives at page i/rowsPerPage, slot i%rowsPerPage.
// Records never span pages, so a row access is exactly one page read with
// a rowWidth-byte transfer. Tables, hidden images and Subtree Key Tables
// are all RowFiles kept in ID order, which is what makes the paper's
// merge-based operators possible.
type RowFile struct {
	dev         *flash.Device
	rowWidth    int
	rowsPerPage int
	pages       []flash.PageID
	count       int

	buf     []byte
	bufRows int
	sealed  bool
}

// NewRowFile creates an empty row file for records of rowWidth bytes.
func NewRowFile(dev *flash.Device, rowWidth int) (*RowFile, error) {
	if rowWidth <= 0 || rowWidth > dev.PageSize() {
		return nil, fmt.Errorf("store: row width %d out of range (page=%d)", rowWidth, dev.PageSize())
	}
	return &RowFile{
		dev:         dev,
		rowWidth:    rowWidth,
		rowsPerPage: dev.PageSize() / rowWidth,
		buf:         make([]byte, dev.PageSize()),
	}, nil
}

// RowWidth returns the record width in bytes.
func (f *RowFile) RowWidth() int { return f.rowWidth }

// Count returns the number of records.
func (f *RowFile) Count() int { return f.count }

// Pages returns the flash footprint in pages.
func (f *RowFile) Pages() int { return len(f.pages) }

// Bytes returns the flash footprint in bytes (whole pages).
func (f *RowFile) Bytes() int { return len(f.pages) * f.dev.PageSize() }

// Append adds one record; its ID is the previous Count(). Records are
// buffered one page at a time during bulk load.
func (f *RowFile) Append(rec []byte) error {
	if f.sealed {
		return fmt.Errorf("store: append to sealed row file")
	}
	if len(rec) != f.rowWidth {
		return fmt.Errorf("store: record is %d bytes, want %d", len(rec), f.rowWidth)
	}
	copy(f.buf[f.bufRows*f.rowWidth:], rec)
	f.bufRows++
	f.count++
	if f.bufRows == f.rowsPerPage {
		return f.flush()
	}
	return nil
}

func (f *RowFile) flush() error {
	id, err := f.dev.Alloc()
	if err != nil {
		return err
	}
	if err := f.dev.Write(id, f.buf[:f.bufRows*f.rowWidth]); err != nil {
		return err
	}
	f.pages = append(f.pages, id)
	f.bufRows = 0
	return nil
}

// Seal flushes the final partial page and freezes the file for reading.
// Appending after Seal reopens nothing: inserts go through Insert.
func (f *RowFile) Seal() error {
	if f.sealed {
		return nil
	}
	if f.bufRows > 0 {
		if err := f.flush(); err != nil {
			return err
		}
	}
	f.sealed = true
	return nil
}

// Insert appends a record to a sealed file (single-tuple updates, §2.3):
// it rewrites the final partial page or allocates a new one.
func (f *RowFile) Insert(rec []byte) error {
	if !f.sealed {
		return f.Append(rec)
	}
	if len(rec) != f.rowWidth {
		return fmt.Errorf("store: record is %d bytes, want %d", len(rec), f.rowWidth)
	}
	slot := f.count % f.rowsPerPage
	if slot == 0 {
		// New page needed.
		id, err := f.dev.Alloc()
		if err != nil {
			return err
		}
		if err := f.dev.Write(id, rec); err != nil {
			return err
		}
		f.pages = append(f.pages, id)
		f.count++
		return nil
	}
	// Read-modify-write the last page (out-of-place at the FTL level).
	last := f.pages[len(f.pages)-1]
	used := slot * f.rowWidth
	if err := f.dev.Read(last, f.buf, used); err != nil {
		return err
	}
	copy(f.buf[used:], rec)
	if err := f.dev.Write(last, f.buf[:used+f.rowWidth]); err != nil {
		return err
	}
	f.count++
	return nil
}

// ReadRow reads record id into dst (len(dst) >= RowWidth()). Exactly one
// page read, transferring rowWidth bytes.
func (f *RowFile) ReadRow(id uint32, dst []byte) error {
	i := int(id)
	if i >= f.count {
		return fmt.Errorf("store: row %d out of range (count=%d)", id, f.count)
	}
	pi := i / f.rowsPerPage
	slot := i % f.rowsPerPage
	return f.dev.ReadRange(f.pages[pi], dst, slot*f.rowWidth, f.rowWidth)
}

// SeqReader streams records in ID order, reading each page once.
type SeqReader struct {
	f    *RowFile
	next int
	page int
	buf  []byte
	n    int // rows in buf
	pos  int // next row within buf

	// Read-ahead pipeline (SetReadAhead): ra holds the staging window,
	// pages raBase..raBase+raN-1 are resident, inflight gauges the pages
	// staged ahead of the consumer, reqs is the window's read batch,
	// reused from window to window. Nil ra = classic one-page reads.
	ra       [][]byte
	raBase   int
	raN      int
	inflight *atomic.Int64
	reqs     []flash.ReadReq
}

// NewSeqReader returns a sequential reader positioned at record 0, over a
// page buffer of its own.
func (f *RowFile) NewSeqReader() *SeqReader {
	rd := &SeqReader{}
	f.InitSeqReader(rd, make([]byte, f.dev.PageSize()))
	return rd
}

// InitSeqReader positions rd at record 0 of f, reading through the
// caller's page buffer buf (at least one flash page), so a reader can
// be reused across files and its page taken from a caller's pool, as
// Segment.Init takes its writer's.
func (f *RowFile) InitSeqReader(rd *SeqReader, buf []byte) {
	*rd = SeqReader{f: f, page: -1, buf: buf}
}

// SetReadAhead double-buffers the scan: whenever the reader crosses into
// an unstaged page it fetches a window of up to len(staging) pages in
// one coalesced flash.ReadMulti request, so the scan drains one page
// while the next ones are already in untrusted-of-the-FTL staging RAM.
// Each staging buffer must hold a full flash page, and the buffers must
// be accounted against the session's RAM grant by the caller. The
// window depth MUST be a constant — never a function of hidden match
// counts — which the prefetchdepth
// leaklint check enforces at every call site; depth is clamped to
// len(staging). Counter parity with the plain scan is exact by
// construction: the batched request charges precisely what the per-page
// reads it replaces would. inflight, when non-nil, gauges
// staged-but-unconsumed pages. Depths below 2 leave the reader in
// classic one-page mode.
func (r *SeqReader) SetReadAhead(depth int, staging [][]byte, inflight *atomic.Int64) {
	if depth > len(staging) {
		depth = len(staging)
	}
	if depth < 2 || r.page >= 0 {
		return // nothing to gain, or the scan already started
	}
	for _, b := range staging[:depth] {
		if len(b) < r.f.dev.PageSize() {
			return // undersized staging: stay in classic mode
		}
	}
	r.ra, r.raBase, r.raN = staging[:depth], -1, 0
	r.inflight = inflight
}

// loadPage makes page pi's rows resident in r.buf, through the
// read-ahead window when one is configured.
func (r *SeqReader) loadPage(pi int) error {
	rows := r.f.rowsPerPage
	if remaining := r.f.count - pi*rows; remaining < rows {
		rows = remaining
	}
	if r.ra == nil {
		if err := r.f.dev.Read(r.f.pages[pi], r.buf, rows*r.f.rowWidth); err != nil {
			return err
		}
	} else {
		if pi < r.raBase || pi >= r.raBase+r.raN {
			n := len(r.ra)
			if rest := len(r.f.pages) - pi; rest < n {
				n = rest
			}
			r.reqs = r.reqs[:0]
			for j := 0; j < n; j++ {
				rj := r.f.rowsPerPage
				if remaining := r.f.count - (pi+j)*r.f.rowsPerPage; remaining < rj {
					rj = remaining
				}
				r.reqs = append(r.reqs, flash.ReadReq{ID: r.f.pages[pi+j], Dst: r.ra[j], N: rj * r.f.rowWidth})
			}
			if err := r.f.dev.ReadMulti(r.reqs); err != nil {
				return err
			}
			r.raBase, r.raN = pi, n
			if r.inflight != nil {
				r.inflight.Add(int64(n - 1))
			}
		} else if r.inflight != nil {
			r.inflight.Add(-1)
		}
		r.buf = r.ra[pi-r.raBase]
	}
	r.page = pi
	r.n = rows
	return nil
}

// Next returns the next record (a view valid until the following call) or
// ok=false at end of file.
func (r *SeqReader) Next() (rec []byte, id uint32, ok bool, err error) {
	if r.next >= r.f.count {
		return nil, 0, false, nil
	}
	pi := r.next / r.f.rowsPerPage
	if pi != r.page {
		if err := r.loadPage(pi); err != nil {
			return nil, 0, false, err
		}
	}
	slot := r.next % r.f.rowsPerPage
	rec = r.buf[slot*r.f.rowWidth : (slot+1)*r.f.rowWidth]
	id = uint32(r.next)
	r.next++
	return rec, id, true, nil
}

// ColumnReader streams one byte span of every record in ID order, a
// column or the whole record: it loads each page once, like SeqReader,
// but transfers only the span of each row (flash.Device.ReadStrided), so
// a pass over a column moves rows × column width bytes instead of rows ×
// record width.
type ColumnReader struct {
	f      *RowFile
	off, w int // the column's byte span within a record
	next   int
	page   int
	buf    []byte
}

// InitColumnReader positions rd at record 0 of f, transferring the
// width-byte span at off of each record into the caller's page buffer
// buf (at least one flash page), as InitSeqReader reads whole records.
func (f *RowFile) InitColumnReader(rd *ColumnReader, buf []byte, off, width int) error {
	if off < 0 || width <= 0 || off+width > f.rowWidth {
		return fmt.Errorf("store: column span [%d,%d) outside a %d-byte record", off, off+width, f.rowWidth)
	}
	*rd = ColumnReader{f: f, off: off, w: width, page: -1, buf: buf}
	return nil
}

// Next returns the next record's column bytes (a view valid until the
// following call) or ok=false at end of file.
func (r *ColumnReader) Next() (col []byte, id uint32, ok bool, err error) {
	f := r.f
	if r.next >= f.count {
		return nil, 0, false, nil
	}
	pi := r.next / f.rowsPerPage
	if pi != r.page {
		rows := min(f.rowsPerPage, f.count-pi*f.rowsPerPage)
		if err := f.dev.ReadStrided(f.pages[pi], r.buf, r.off, r.w, f.rowWidth, rows); err != nil {
			return nil, 0, false, err
		}
		r.page = pi
	}
	at := r.next%f.rowsPerPage*f.rowWidth + r.off
	id = uint32(r.next)
	r.next++
	return r.buf[at : at+r.w], id, true, nil
}

// PageOf returns the index of the page holding record id.
func (f *RowFile) PageOf(id uint32) int { return int(id) / f.rowsPerPage }

// GatherReader reads whole records for ascending ids, a page's run of
// them at a time: Load loads the run's page once and transfers only the
// listed records (flash.Device.ReadGather), so rewriting k rows of a
// page moves k × record width bytes, not the page. It reads through a
// caller's page buffer, as ColumnReader does, and loads each page at
// most once: every run must lie on a page past the last one loaded.
type GatherReader struct {
	f     *RowFile
	buf   []byte
	slots []int
	page  int // the page last loaded, -1 before the first Load
}

// InitGatherReader positions rd before the first page of f, reading
// through the caller's page buffer buf (at least one flash page).
func (f *RowFile) InitGatherReader(rd *GatherReader, buf []byte) {
	*rd = GatherReader{f: f, buf: buf, page: -1}
}

// Load transfers records ids, strictly ascending and all on one page
// past the last page loaded, into the reader's page buffer; Row returns
// them. An empty run reads nothing.
func (r *GatherReader) Load(ids []uint32) error {
	if len(ids) == 0 {
		return nil
	}
	f := r.f
	pi := f.PageOf(ids[0])
	if last := int(ids[len(ids)-1]); last >= f.count || f.PageOf(uint32(last)) != pi || pi <= r.page {
		return fmt.Errorf("store: gather of rows %d..%d: not one page past page %d of %d rows", ids[0], last, r.page, f.count)
	}
	r.slots = r.slots[:0]
	for _, id := range ids {
		r.slots = append(r.slots, int(id)%f.rowsPerPage)
	}
	if err := f.dev.ReadGather(f.pages[pi], r.buf, 0, f.rowWidth, f.rowWidth, r.slots); err != nil {
		return err
	}
	r.page = pi
	return nil
}

// Row returns record id as the last Load transferred it (a view valid
// until the next Load); id must be one of that Load's ids.
func (r *GatherReader) Row(id uint32) []byte {
	at := int(id) % r.f.rowsPerPage * r.f.rowWidth
	return r.buf[at : at+r.f.rowWidth]
}

// SortedReader reads records for an ascending sequence of IDs, touching
// each page at most once (the SJoin access pattern: low-selectivity inputs
// touch few pages, and above ~10% selectivity every page is read, which is
// exactly the effect Figure 9 discusses).
type SortedReader struct {
	f    *RowFile
	page int
	buf  []byte
	last int64
}

// NewSortedReader returns a reader for ascending ID access.
func (f *RowFile) NewSortedReader() *SortedReader {
	return &SortedReader{f: f, page: -1, buf: make([]byte, f.dev.PageSize()), last: -1}
}

// Read fetches record id; ids must be non-decreasing across calls.
func (r *SortedReader) Read(id uint32, dst []byte) error {
	if int64(id) < r.last {
		return fmt.Errorf("store: sorted reader got id %d after %d", id, r.last)
	}
	r.last = int64(id)
	i := int(id)
	if i >= r.f.count {
		return fmt.Errorf("store: row %d out of range (count=%d)", id, r.f.count)
	}
	pi := i / r.f.rowsPerPage
	if pi != r.page {
		rows := r.f.rowsPerPage
		if remaining := r.f.count - pi*rows; remaining < rows {
			rows = remaining
		}
		if err := r.f.dev.Read(r.f.pages[pi], r.buf, rows*r.f.rowWidth); err != nil {
			return err
		}
		r.page = pi
	}
	slot := i % r.f.rowsPerPage
	copy(dst, r.buf[slot*r.f.rowWidth:(slot+1)*r.f.rowWidth])
	return nil
}

// Free releases all pages.
func (f *RowFile) Free() error {
	for _, p := range f.pages {
		if err := f.dev.Free(p); err != nil {
			return err
		}
	}
	f.pages = nil
	f.count = 0
	f.sealed = true
	return nil
}
