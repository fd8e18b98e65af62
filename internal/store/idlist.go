package store

import (
	"encoding/binary"
	"fmt"

	"ghostdb/internal/flash"
)

// IDBytes is the encoded width of one tuple identifier (Table 1).
const IDBytes = 4

// Run locates one packed sorted ID sublist within a ListSegment: Count
// identifiers starting at byte offset Off.
type Run struct {
	Off   int
	Count int
}

// Pages returns how many flash pages a sequential scan of the run touches.
func (r Run) Pages(pageSize int) int {
	if r.Count == 0 {
		return 0
	}
	first := r.Off / pageSize
	last := (r.Off + r.Count*IDBytes - 1) / pageSize
	return last - first + 1
}

// ListSegment stores packed sorted runs of 4-byte identifiers. Climbing
// index sublists, temporary intermediate ID lists and Merge spill areas
// are all ListSegments. Its pages are its Segment's: sealing, freeing and
// reading runs (InitRunReader at width IDBytes) are the Segment's own.
type ListSegment struct {
	Segment

	runOpen  bool
	runStart int
	runCount int
}

// NewListSegment creates an empty list segment.
func NewListSegment(dev *flash.Device) *ListSegment {
	return &ListSegment{Segment: Segment{dev: dev, buf: make([]byte, dev.PageSize())}}
}

// Init sets l up as an empty list segment on dev that assembles its pages
// in buf, a caller-owned buffer, on the terms of Segment.Init: Seal and
// Free hand buf back.
func (l *ListSegment) Init(dev *flash.Device, buf []byte) {
	*l = ListSegment{}
	l.Segment.Init(dev, buf)
}

// BeginRun starts a new sublist at the current append position.
func (l *ListSegment) BeginRun() error {
	if l.runOpen {
		return fmt.Errorf("store: run already open")
	}
	l.runOpen = true
	l.runStart = l.Bytes()
	l.runCount = 0
	return nil
}

// Add appends one identifier to the open run. Identifiers within a run
// must be added in ascending order; this is checked cheaply at read time
// by the operators, not here, to keep the hot path tight. An id that
// leaves room in the page buffer is written straight into it; one that
// fills the page (or straddles it) goes through Segment.Append, which
// flushes.
func (l *ListSegment) Add(id uint32) error {
	if !l.runOpen {
		return fmt.Errorf("store: Add outside a run")
	}
	s := &l.Segment
	if end := s.bufUsed + IDBytes; end < len(s.buf) && !s.sealed {
		binary.BigEndian.PutUint32(s.buf[s.bufUsed:end], id)
		s.bufUsed = end
	} else {
		var rec [IDBytes]byte
		binary.BigEndian.PutUint32(rec[:], id)
		if err := s.Append(rec[:]); err != nil {
			return err
		}
	}
	l.runCount++
	return nil
}

// EndRun closes the open run and returns its descriptor.
func (l *ListSegment) EndRun() (Run, error) {
	if !l.runOpen {
		return Run{}, fmt.Errorf("store: EndRun without BeginRun")
	}
	l.runOpen = false
	return Run{Off: l.runStart, Count: l.runCount}, nil
}

// AppendRun writes a whole sorted slice as one run.
func (l *ListSegment) AppendRun(ids []uint32) (Run, error) {
	if err := l.BeginRun(); err != nil {
		return Run{}, err
	}
	for _, id := range ids {
		if err := l.Add(id); err != nil {
			return Run{}, err
		}
	}
	return l.EndRun()
}

// RunReader streams a run of fixed-width records in order through one
// page buffer: an id run of a ListSegment (width IDBytes, decoded by
// Next) or a run of wider records (NextRecord). A refill reads from the
// next record's offset to the end of the flash page holding its last
// byte (or to the end of the run), one page read per page touched. For a
// width that divides the page size and a run aligned to it (every id
// run), each page of the run is so read exactly once; a record that
// straddles a page boundary re-reads the tail of its first page, which
// the previous refill already read. The reader consumes one RAM buffer's
// worth of working space (the caller accounts for it with a ram.Grant).
type RunReader struct {
	seg *Segment
	buf []byte
	win []byte // the loaded bytes not read yet, a suffix of buf
	off int    // absolute byte offset of the first byte not loaded yet
	end int    // absolute byte offset just past the run
	w   int    // record width
}

// NewRunReader opens a streaming reader over an id run.
func (l *ListSegment) NewRunReader(run Run) *RunReader {
	rd := &RunReader{}
	l.InitRunReader(rd, run, IDBytes, make([]byte, l.PageSize()))
	return rd
}

// InitRunReader sets rd up as a reader over run.Count records of width
// bytes starting at byte run.Off, streaming through a caller-owned page
// buffer of at least PageSize bytes, so a caller that opens many readers
// can hold them by value and recycle the buffers; the reader uses buf
// until its last read.
func (s *Segment) InitRunReader(rd *RunReader, run Run, width int, buf []byte) {
	*rd = RunReader{seg: s, buf: buf, off: run.Off, end: run.Off + run.Count*width, w: width}
}

// Next returns the next identifier of an id run, or ok=false at the end
// of the run. The hot path decodes from the window and advances it;
// nextPage refills the window.
func (r *RunReader) Next() (uint32, bool, error) {
	if len(r.win) < IDBytes {
		return r.nextPage()
	}
	v := binary.BigEndian.Uint32(r.win)
	r.win = r.win[IDBytes:]
	return v, true, nil
}

// nextPage loads the id the window does not hold and returns it.
func (r *RunReader) nextPage() (uint32, bool, error) {
	var rec [IDBytes]byte
	ok, err := r.load(rec[:])
	return binary.BigEndian.Uint32(rec[:]), ok, err
}

// NextRecord copies the next record into dst, which must hold the
// reader's width, or returns ok=false at the end of the run.
func (r *RunReader) NextRecord(dst []byte) (bool, error) {
	if len(r.win) < r.w {
		return r.load(dst)
	}
	copy(dst, r.win[:r.w])
	r.win = r.win[r.w:]
	return true, nil
}

// load reads the record the window holds only part of, or none of, into
// dst, and loads the window with the rest of the page holding its last
// byte. Of a record that straddles a page boundary, the bytes before
// that page are read straight into dst: dst is the one-record carry.
func (r *RunReader) load(dst []byte) (bool, error) {
	off := r.off - len(r.win) // the record's first byte
	if off >= r.end {
		return false, nil
	}
	ps := r.seg.PageSize()
	page := (off + r.w - 1) / ps * ps // the page holding the record's last byte
	h := max(page-off, 0)
	if err := r.seg.ReadAt(dst[:h], off, h); err != nil {
		return false, err
	}
	end := min(page+ps, r.end)
	n := end - off - h
	if err := r.seg.ReadAt(r.buf[:n], off+h, n); err != nil {
		return false, err
	}
	copy(dst[h:r.w], r.buf)
	r.off, r.win = end, r.buf[r.w-h:n]
	return true, nil
}

// ReadAll materializes the whole run into a slice (used by small-list fast
// paths and by tests).
func (l *ListSegment) ReadAll(run Run) ([]uint32, error) {
	out := make([]uint32, 0, run.Count)
	rd := l.NewRunReader(run)
	for {
		v, ok, err := rd.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, v)
	}
}
