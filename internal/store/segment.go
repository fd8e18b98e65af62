// Package store provides the on-flash storage primitives of the Secure
// USB key: page segments, fixed-width row files addressed by dense
// surrogate identifiers, and packed sorted ID-list segments — the physical
// substrate beneath tables, Subtree Key Tables and climbing indexes.
//
// A note on accounting: readers and writers use small Go byte slices as
// their working area, but the *simulated* RAM budget is enforced by the
// operators in internal/exec through internal/ram grants. This keeps the
// accounting model (what the paper charges) separate from the host
// implementation details.
package store

import (
	"fmt"

	"ghostdb/internal/flash"
)

// Segment is an ordered collection of flash pages with an append cursor.
// It underlies row files, list segments and temporary spill areas.
type Segment struct {
	dev   *flash.Device
	pages []flash.PageID

	buf      []byte // page assembly buffer
	bufUsed  int
	lastUsed int // meaningful bytes in the final page, valid once sealed
	sealed   bool
	lent     bool // buf is the caller's (Init), handed back at Seal
}

// NewSegment creates an empty segment on dev.
func NewSegment(dev *flash.Device) *Segment {
	return &Segment{dev: dev, buf: make([]byte, dev.PageSize())}
}

// Init sets s up as an empty segment on dev that assembles its pages in
// buf, a caller-owned buffer of at least PageSize bytes, so a caller that
// opens many short-lived segments can hold them by value and recycle
// their buffers. Seal and Free hand buf back: from then on the segment
// never touches it (a Reopen takes a buffer of its own).
func (s *Segment) Init(dev *flash.Device, buf []byte) {
	*s = Segment{dev: dev, buf: buf[:dev.PageSize()], lent: true}
}

// handBack drops a lent assembly buffer, which is the caller's again.
func (s *Segment) handBack() {
	if s.lent {
		s.buf, s.lent = nil, false
	}
}

// PageSize returns the device page size.
func (s *Segment) PageSize() int { return s.dev.PageSize() }

// Pages returns the number of flash pages held.
func (s *Segment) Pages() int { return len(s.pages) }

// Bytes returns the total byte size of the committed content.
func (s *Segment) Bytes() int {
	if len(s.pages) == 0 {
		return s.bufUsed
	}
	if s.sealed {
		return (len(s.pages)-1)*s.dev.PageSize() + s.lastUsed
	}
	return len(s.pages)*s.dev.PageSize() + s.bufUsed
}

// Append adds raw bytes, packing them across page boundaries. Call Seal
// when done to flush the final partial page.
func (s *Segment) Append(data []byte) error {
	if s.sealed {
		return fmt.Errorf("store: append to sealed segment")
	}
	for len(data) > 0 {
		n := copy(s.buf[s.bufUsed:], data)
		s.bufUsed += n
		data = data[n:]
		if s.bufUsed == len(s.buf) {
			if err := s.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Segment) flush() error {
	id, err := s.dev.Alloc()
	if err != nil {
		return err
	}
	if err := s.dev.Write(id, s.buf[:s.bufUsed]); err != nil {
		return err
	}
	s.pages = append(s.pages, id)
	s.bufUsed = 0
	return nil
}

// Seal flushes the trailing partial page (if any) and freezes the segment.
func (s *Segment) Seal() error {
	if s.sealed {
		return nil
	}
	if s.bufUsed > 0 {
		s.lastUsed = s.bufUsed
		if err := s.flush(); err != nil {
			return err
		}
	} else {
		s.lastUsed = s.dev.PageSize()
	}
	s.sealed = true
	s.handBack()
	return nil
}

// Reopen makes a sealed segment appendable again: the trailing partial
// page (if any) is pulled back into the assembly buffer and released, so
// previously committed byte offsets remain stable.
func (s *Segment) Reopen() error {
	if !s.sealed {
		return nil
	}
	s.sealed = false
	if s.buf == nil {
		s.buf = make([]byte, s.dev.PageSize())
	}
	if len(s.pages) == 0 {
		s.bufUsed = 0
		return nil
	}
	if s.lastUsed == s.dev.PageSize() {
		s.bufUsed = 0
		return nil
	}
	last := s.pages[len(s.pages)-1]
	if err := s.dev.Read(last, s.buf, s.lastUsed); err != nil {
		return err
	}
	if err := s.dev.Free(last); err != nil {
		return err
	}
	s.pages = s.pages[:len(s.pages)-1]
	s.bufUsed = s.lastUsed
	return nil
}

// Free releases every page back to the device. The segment is unusable
// afterwards.
func (s *Segment) Free() error {
	for _, p := range s.pages {
		if err := s.dev.Free(p); err != nil {
			return err
		}
	}
	s.pages = nil
	s.bufUsed = 0
	s.sealed = true
	s.handBack()
	return nil
}

// ReadAt reads n bytes at absolute byte offset off within the segment's
// content into dst, issuing one flash page read per touched page.
func (s *Segment) ReadAt(dst []byte, off, n int) error {
	ps := s.dev.PageSize()
	if off < 0 || n < 0 {
		return fmt.Errorf("store: bad range off=%d n=%d", off, n)
	}
	for n > 0 {
		pi := off / ps
		po := off % ps
		if pi >= len(s.pages) {
			return fmt.Errorf("store: read past end of segment (page %d of %d)", pi, len(s.pages))
		}
		chunk := ps - po
		if chunk > n {
			chunk = n
		}
		if err := s.dev.ReadRange(s.pages[pi], dst[:chunk], po, chunk); err != nil {
			return err
		}
		dst = dst[chunk:]
		off += chunk
		n -= chunk
	}
	return nil
}
