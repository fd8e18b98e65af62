// Package exec is the fixture execution engine: the only package the
// grantsize and slotdiscipline rules apply to, and an audited bus
// caller.
package exec

import (
	"fmt"

	"fixture/bus"
	"fixture/flash"
	"fixture/hidden"
	"fixture/sched"
	"fixture/store"
	"fixture/untrusted"
)

// Token owns one secure token's state; Dev and Hidden are the hot
// fields slotdiscipline guards.
type Token struct {
	Dev    *flash.Device
	Hidden map[int]*hidden.Image
	Link   *bus.Channel
}

// Plan is the admission grant buffers derive their sizes from.
type Plan struct {
	BufferBytes int
}

// Run is the correct shape of a query entry point: token state and
// grant-derived buffers only inside the session's Exclusive closure,
// and the bus transfer from an audited caller. Every rule stays silent.
func Run(s *sched.Session, t *Token, p Plan) error {
	return s.Exclusive(func() error {
		img := t.Hidden[0]
		buf := make([]byte, p.BufferBytes)
		if img != nil && len(img.Rows) > 0 {
			copy(buf, img.Rows[0])
		}
		return t.Link.Transfer(0, []byte("query"))
	})
}

// stepOn advances one operator over the token's hidden image; its
// callers must already hold the slot.
//
//ghostdb:requires-slot
func stepOn(t *Token) *hidden.Image {
	return t.Hidden[0]
}

// loadAll is the bulk-load path, which runs single-threaded before the
// database accepts queries, so touching token state is legitimate.
//
//ghostdb:load-phase
func loadAll(t *Token, dev *flash.Device) {
	t.Dev = dev
	t.Hidden = map[int]*hidden.Image{}
}

// smallScratch is fixed scratch below the grantsize threshold.
func smallScratch() []byte {
	return make([]byte, 4)
}

// header allocates the wire header, a reviewed data-independent size.
func header() []byte {
	//ghostdb:fixedsize — the wire header width is protocol-fixed
	return make([]byte, 64)
}

// meterQuery hands a closure to the untrusted side: code the callee
// runs, not data it receives, so trustboundary stays silent.
func meterQuery(img *hidden.Image) {
	untrusted.Span("scan", func() {
		_ = img.Count()
	})
}

// arityErr formats a count under a reviewed //ghostdb:public
// declassification, which must stay silent.
func arityErr(img *hidden.Image, cols int) error {
	//ghostdb:public — arity is schema metadata, not data content
	return fmt.Errorf("image has %d rows, want %d columns", img.Count(), cols)
}

// leakCount is a seeded violation: a hidden-derived cardinality
// formatted into an error string.
func leakCount(img *hidden.Image) error {
	return fmt.Errorf("scan produced %d rows", img.Count()) // want trustboundary:"error/log strings are observable"
}

// leakViaLocal is a seeded violation: taint flows through a local
// variable into an untrusted-side call.
func leakViaLocal(img *hidden.Image) {
	n := img.Count()
	untrusted.Observe(n) // want trustboundary:"hidden-derived argument crosses the trust boundary"
}

// leakDeltaDepth is a seeded violation: the write path's delta-log
// depth is hidden write volume, and formatting it into an error string
// would hand the untrusted side the table's update rate.
func leakDeltaDepth(d *hidden.Delta) error {
	return fmt.Errorf("delta log at depth %d", d.Depth()) // want trustboundary:"error/log strings are observable"
}

// rawRead is a seeded violation: exec is not a metered layer, so a raw
// device read bypasses the byte accounting.
func rawRead(d *flash.Device, page int) error {
	return d.Read(page, header()) // want busmeter:"bypasses the metered storage layer"
}

// oversized is a seeded violation twice over: literal-sized buffers on
// the exec path instead of grant-derived capacities.
func oversized() ([]byte, []uint32) {
	buf := make([]byte, 4096)     // want grantsize:"make with constant size 4096"
	ids := make([]uint32, 0, 512) // want grantsize:"make with constant size 512"
	return buf, ids
}

// touchOutside is a seeded violation: token state outside any session.
func touchOutside(t *Token) *flash.Device {
	return t.Dev // want slotdiscipline:"touched without an admitted session"
}

// callOutside is a seeded violation: it calls a requires-slot helper
// without holding the slot.
func callOutside(t *Token) {
	stepOn(t) // want slotdiscipline:"requires the token slot"
}

// Expose is a seeded violation: an exported entry point cannot merely
// assume the slot, because outside callers hold no session.
//
//ghostdb:requires-slot
func Expose(t *Token) *hidden.Image { // want slotdiscipline:"exported function Expose must acquire an admitted session"
	return t.Hidden[0]
}

// scanAhead arms read-ahead at constant depths, a literal and a builtin
// min over constants, which stay silent; a depth that arrives at run
// time is flagged whatever derived it.
func scanAhead(r *store.SeqReader, pages int, staging [][]byte) {
	r.SetReadAhead(2, staging)
	r.SetReadAhead(min(2, 4), staging)
	r.SetReadAhead(pages, staging)         // want prefetchdepth:"read-ahead depth must be a constant"
	r.SetReadAhead(min(pages, 4), staging) // want prefetchdepth:"read-ahead depth must be a constant"
}

// leakDepth is a seeded violation: a hidden-derived cardinality as the
// read-ahead depth would let the scan's flash traffic encode data.
func leakDepth(r *store.SeqReader, img *hidden.Image, staging [][]byte) {
	r.SetReadAhead(img.Count(), staging) // want prefetchdepth:"read-ahead depth must be a constant"
}
