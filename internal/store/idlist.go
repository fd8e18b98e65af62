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
// are all ListSegments.
type ListSegment struct {
	seg Segment

	runOpen  bool
	runStart int
	runCount int
}

// NewListSegment creates an empty list segment.
func NewListSegment(dev *flash.Device) *ListSegment {
	return &ListSegment{seg: Segment{dev: dev, buf: make([]byte, dev.PageSize())}}
}

// Init sets l up as an empty list segment on dev that assembles its pages
// in buf, a caller-owned buffer, on the terms of Segment.Init: Seal and
// Free hand buf back.
func (l *ListSegment) Init(dev *flash.Device, buf []byte) {
	*l = ListSegment{}
	l.seg.Init(dev, buf)
}

// BeginRun starts a new sublist at the current append position.
func (l *ListSegment) BeginRun() error {
	if l.runOpen {
		return fmt.Errorf("store: run already open")
	}
	l.runOpen = true
	l.runStart = l.seg.Bytes()
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
	s := &l.seg
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

// Seal flushes the trailing partial page.
func (l *ListSegment) Seal() error { return l.seg.Seal() }

// Reopen makes a sealed list segment appendable again (post-load insert
// maintenance appends tiny runs).
func (l *ListSegment) Reopen() error { return l.seg.Reopen() }

// Free releases all pages.
func (l *ListSegment) Free() error { return l.seg.Free() }

// Pages returns the flash footprint in pages.
func (l *ListSegment) Pages() int { return l.seg.Pages() }

// Bytes returns the number of content bytes appended so far.
func (l *ListSegment) Bytes() int { return l.seg.Bytes() }

// RunReader streams a run's identifiers in order, reading each underlying
// flash page exactly once. It consumes one RAM buffer's worth of working
// space (the caller accounts for it with a ram.Grant).
type RunReader struct {
	l   *ListSegment
	buf []byte
	win []byte // the loaded ids not read yet, a prefix-trimmed window of buf
	off int    // absolute byte offset of the first id not loaded yet
	end int    // absolute byte offset just past the run
}

// NewRunReader opens a streaming reader over run.
func (l *ListSegment) NewRunReader(run Run) *RunReader {
	rd := &RunReader{}
	l.InitRunReader(rd, run, make([]byte, l.seg.PageSize()))
	return rd
}

// InitRunReader sets rd up as a reader over run that streams through a
// caller-owned page buffer of at least PageSize bytes, so a caller that
// opens many readers can hold them by value and recycle the buffers; the
// reader uses buf until its last Next.
func (l *ListSegment) InitRunReader(rd *RunReader, run Run, buf []byte) {
	*rd = RunReader{l: l, buf: buf, off: run.Off, end: run.Off + run.Count*IDBytes}
}

// Next returns the next identifier, or ok=false at the end of the run.
// The hot path decodes from the window and advances it; nextPage refills
// the window.
func (r *RunReader) Next() (uint32, bool, error) {
	if len(r.win) < IDBytes {
		return r.nextPage()
	}
	v := binary.BigEndian.Uint32(r.win)
	r.win = r.win[IDBytes:]
	return v, true, nil
}

// nextPage loads the window from the next id to the end of its flash
// page (or of the run) and returns that id.
func (r *RunReader) nextPage() (uint32, bool, error) {
	if r.off >= r.end {
		return 0, false, nil
	}
	ps := r.l.seg.PageSize()
	end := min((r.off/ps+1)*ps, r.end)
	n := end - r.off
	if err := r.l.seg.ReadAt(r.buf[:n], r.off, n); err != nil {
		return 0, false, err
	}
	r.off = end
	r.win = r.buf[IDBytes:n]
	return binary.BigEndian.Uint32(r.buf), true, nil
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
