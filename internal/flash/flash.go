// Package flash simulates the external NAND flash module of a smart USB
// key, including the Flash Translation Layer (FTL) that GhostDB's cost
// model accounts for: logical-to-physical address translation, out-of-place
// updates, garbage collection and wear leveling.
//
// The simulator is I/O accurate in the sense of the paper (SIGMOD'07 §6.1):
// it delivers the exact number of pages read and written, including FTL
// traffic, and the exact number of bytes transferred between the flash data
// register and RAM. Absolute time is derived from those counters by
// internal/metrics, never from wall-clock time.
package flash

import (
	"errors"
	"fmt"
)

// Default geometry and cost parameters from Table 1 of the paper.
const (
	DefaultPageSize      = 2048
	DefaultPagesPerBlock = 64
	DefaultBlocks        = 1 << 15 // 32768 blocks * 128KB = 4GB address space
)

// Errors returned by Device operations.
var (
	ErrDeviceFull  = errors.New("flash: device full")
	ErrBadPage     = errors.New("flash: invalid logical page")
	ErrShortWrite  = errors.New("flash: write exceeds page size")
	ErrDeviceClose = errors.New("flash: device closed")
)

// PageID identifies a logical flash page. Logical pages survive FTL
// relocation; callers never observe physical placement.
type PageID uint32

// InvalidPage is the zero PageID sentinel; valid pages start at 1.
const InvalidPage PageID = 0

// Params configures the simulated device geometry.
type Params struct {
	PageSize      int // bytes per page (I/O unit)
	PagesPerBlock int // pages per erase block
	Blocks        int // total erase blocks
	ReserveBlocks int // blocks withheld from user capacity for GC headroom
}

// DefaultParams returns the geometry used throughout the paper's
// experiments: 2KB pages in 128KB erase blocks.
func DefaultParams() Params {
	return Params{
		PageSize:      DefaultPageSize,
		PagesPerBlock: DefaultPagesPerBlock,
		Blocks:        DefaultBlocks,
		ReserveBlocks: 8,
	}
}

func (p Params) validate() error {
	if p.PageSize <= 0 || p.PagesPerBlock <= 0 || p.Blocks <= 0 {
		return fmt.Errorf("flash: non-positive geometry %+v", p)
	}
	if p.ReserveBlocks < 1 {
		return fmt.Errorf("flash: need at least 1 reserve block, got %d", p.ReserveBlocks)
	}
	if p.ReserveBlocks >= p.Blocks {
		return fmt.Errorf("flash: reserve %d >= blocks %d", p.ReserveBlocks, p.Blocks)
	}
	return nil
}

// Counters accumulates the raw I/O activity of the device. All GhostDB
// performance numbers derive from these values.
type Counters struct {
	PageReads   uint64 // pages loaded flash -> data register
	PageWrites  uint64 // pages programmed data register -> flash
	BlockErases uint64 // erase-block operations (GC)
	BytesToRAM  uint64 // bytes moved data register -> RAM
	GCPageMoves uint64 // valid-page relocations performed by the FTL
}

// Sub returns c - o component-wise; useful for span deltas.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		PageReads:   c.PageReads - o.PageReads,
		PageWrites:  c.PageWrites - o.PageWrites,
		BlockErases: c.BlockErases - o.BlockErases,
		BytesToRAM:  c.BytesToRAM - o.BytesToRAM,
		GCPageMoves: c.GCPageMoves - o.GCPageMoves,
	}
}

// Add returns c + o component-wise.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		PageReads:   c.PageReads + o.PageReads,
		PageWrites:  c.PageWrites + o.PageWrites,
		BlockErases: c.BlockErases + o.BlockErases,
		BytesToRAM:  c.BytesToRAM + o.BytesToRAM,
		GCPageMoves: c.GCPageMoves + o.GCPageMoves,
	}
}

const (
	physFree = iota
	physValid
	physInvalid
)

// Device is a simulated NAND flash module behind an FTL. It is not safe
// for concurrent use; GhostDB runs a single query at a time on the secure
// token, as the paper's mono-user setting prescribes.
type Device struct {
	params Params

	// FTL mapping.
	l2p      []int32  // logical page -> physical page (-1 = unmapped)
	freeLog  []PageID // recycled logical IDs
	nextLog  PageID   // next never-used logical ID (starts at 1)
	mapped   int      // logical pages currently mapped (= valid physical)
	capacity int      // max mappable pages (user-visible capacity)

	// Physical state.
	state      []uint8  // per physical page: free/valid/invalid
	p2l        []int32  // physical page -> logical owner (for GC)
	data       [][]byte // per block, lazily allocated PagesPerBlock*PageSize
	spare      [][]byte // buffers of blocks left without a valid page (<= ReserveBlocks)
	blockValid []int32  // valid pages per block
	blockInval []int32  // invalid pages per block
	erases     []uint32 // wear: erase count per block
	frontier   int      // physical page cursor for sequential programming
	freePhys   int      // free physical pages remaining

	c      Counters
	closed bool
}

// NewDevice creates a device with the given geometry.
func NewDevice(p Params) (*Device, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	totalPages := p.Blocks * p.PagesPerBlock
	d := &Device{
		params:     p,
		nextLog:    1,
		capacity:   (p.Blocks - p.ReserveBlocks) * p.PagesPerBlock,
		state:      make([]uint8, totalPages),
		p2l:        make([]int32, totalPages),
		data:       make([][]byte, p.Blocks),
		blockValid: make([]int32, p.Blocks),
		blockInval: make([]int32, p.Blocks),
		erases:     make([]uint32, p.Blocks),
		freePhys:   totalPages,
	}
	for i := range d.p2l {
		d.p2l[i] = -1
	}
	return d, nil
}

// MustDevice is NewDevice that panics on configuration errors; convenient
// for tests and examples with static parameters.
func MustDevice(p Params) *Device {
	d, err := NewDevice(p)
	if err != nil {
		panic(err)
	}
	return d
}

// PageSize returns the I/O unit in bytes.
func (d *Device) PageSize() int { return d.params.PageSize }

// Capacity returns the user-visible capacity in pages.
func (d *Device) Capacity() int { return d.capacity }

// PagesUsed returns the number of mapped logical pages.
func (d *Device) PagesUsed() int { return d.mapped }

// Counters returns a snapshot of the accumulated I/O counters.
func (d *Device) Counters() Counters { return d.c }

// ResetCounters zeroes the I/O counters (data is untouched). Experiments
// use this to exclude the load/build phase from query measurements.
func (d *Device) ResetCounters() { d.c = Counters{} }

// MaxWear returns the highest per-block erase count, for wear-leveling
// diagnostics.
func (d *Device) MaxWear() uint32 {
	var m uint32
	for _, e := range d.erases {
		if e > m {
			m = e
		}
	}
	return m
}

// Alloc reserves a fresh logical page. The page has no contents until the
// first Write; reading it before writing is an error.
func (d *Device) Alloc() (PageID, error) {
	if d.closed {
		return InvalidPage, ErrDeviceClose
	}
	if d.mapped >= d.capacity {
		return InvalidPage, ErrDeviceFull
	}
	d.mapped++
	if n := len(d.freeLog); n > 0 {
		id := d.freeLog[n-1]
		d.freeLog = d.freeLog[:n-1]
		return id, nil
	}
	id := d.nextLog
	d.nextLog++
	if int(id) >= len(d.l2p) {
		grown := make([]int32, int(id)*2+16)
		copy(grown, d.l2p)
		for i := len(d.l2p); i < len(grown); i++ {
			grown[i] = -1
		}
		d.l2p = grown
	}
	d.l2p[id] = -1
	return id, nil
}

// Free releases a logical page; its physical page becomes garbage for the
// next GC cycle.
func (d *Device) Free(id PageID) error {
	if err := d.checkMapped(id); err != nil {
		if errors.Is(err, ErrBadPage) && d.isAllocated(id) {
			// Allocated but never written: just recycle the ID.
			d.l2p[id] = -1
			d.freeLog = append(d.freeLog, id)
			d.mapped--
			return nil
		}
		return err
	}
	pp := d.l2p[id]
	d.invalidate(int(pp))
	d.l2p[id] = -1
	d.freeLog = append(d.freeLog, id)
	d.mapped--
	return nil
}

func (d *Device) isAllocated(id PageID) bool {
	if id == InvalidPage || int(id) >= int(d.nextLog) {
		return false
	}
	for _, f := range d.freeLog {
		if f == id {
			return false
		}
	}
	return true
}

func (d *Device) checkMapped(id PageID) error {
	if id == InvalidPage || int(id) >= len(d.l2p) || d.l2p[id] < 0 {
		return fmt.Errorf("%w: %d", ErrBadPage, id)
	}
	return nil
}

// Write programs a full logical page with data (len(data) <= PageSize;
// shorter writes are zero-padded). Updates are out-of-place: the previous
// physical page, if any, is invalidated, exactly as a real FTL behaves
// ("updates are not performed in place in Flash", §6.1).
func (d *Device) Write(id PageID, data []byte) error {
	if d.closed {
		return ErrDeviceClose
	}
	if len(data) > d.params.PageSize {
		return fmt.Errorf("%w: %d > %d", ErrShortWrite, len(data), d.params.PageSize)
	}
	if !d.isAllocated(id) {
		return fmt.Errorf("%w: %d (not allocated)", ErrBadPage, id)
	}
	pp, err := d.program(data)
	if err != nil {
		return err
	}
	if old := d.l2p[id]; old >= 0 {
		d.invalidate(int(old))
	}
	d.l2p[id] = int32(pp)
	d.p2l[pp] = int32(id)
	d.c.PageWrites++
	return nil
}

// Read loads a logical page into the data register and transfers the first
// n bytes into dst. Per the paper's cost model the page load costs a fixed
// latency and the transfer costs 50ns per byte, so reading a fraction of a
// page is cheaper than a full page. n <= PageSize; dst must hold n bytes.
func (d *Device) Read(id PageID, dst []byte, n int) error {
	if d.closed {
		return ErrDeviceClose
	}
	if n < 0 || n > d.params.PageSize {
		return fmt.Errorf("flash: read size %d out of range", n)
	}
	if len(dst) < n {
		return fmt.Errorf("flash: dst too small: %d < %d", len(dst), n)
	}
	if err := d.checkMapped(id); err != nil {
		return err
	}
	if n == 0 {
		// Nothing enters the data register: a zero-length read is a
		// validated no-op and must not charge a page load.
		return nil
	}
	pp := int(d.l2p[id])
	blk, off := pp/d.params.PagesPerBlock, pp%d.params.PagesPerBlock
	src := d.data[blk][off*d.params.PageSize:]
	copy(dst[:n], src[:n])
	d.c.PageReads++
	d.c.BytesToRAM += uint64(n)
	return nil
}

// ReadFull reads an entire page into dst (len(dst) >= PageSize).
func (d *Device) ReadFull(id PageID, dst []byte) error {
	return d.Read(id, dst, d.params.PageSize)
}

// ReadRange loads a logical page into the data register and transfers n
// bytes starting at offset off into dst. Only the n transferred bytes are
// charged at the per-byte rate; the page load is charged once, matching
// the paper's observation that reading a single word of a page costs 25µs
// plus a tiny transfer, versus 125µs for a full 2KB page.
func (d *Device) ReadRange(id PageID, dst []byte, off, n int) error {
	if d.closed {
		return ErrDeviceClose
	}
	if off < 0 || n < 0 || off+n > d.params.PageSize {
		return fmt.Errorf("flash: range [%d,%d) out of page", off, off+n)
	}
	if len(dst) < n {
		return fmt.Errorf("flash: dst too small: %d < %d", len(dst), n)
	}
	if err := d.checkMapped(id); err != nil {
		return err
	}
	if n == 0 {
		// Validated no-op, as in Read: no page load, no transfer.
		return nil
	}
	pp := int(d.l2p[id])
	blk, o := pp/d.params.PagesPerBlock, pp%d.params.PagesPerBlock
	src := d.data[blk][o*d.params.PageSize:]
	copy(dst[:n], src[off:off+n])
	d.c.PageReads++
	d.c.BytesToRAM += uint64(n)
	return nil
}

// ReadStrided loads a logical page into the data register once and
// transfers count spans of n bytes, the i-th starting at off+i*stride,
// each into the same offset of dst: one column of a page of fixed-width
// records. Only the count*n transferred bytes are charged at the
// per-byte rate, the page load once, as in ReadRange; bytes of dst
// outside the spans are left untouched. The spans must lie inside the
// page and must not overlap (stride >= n when count > 1); dst must
// reach the last span's end. A count or n of 0 is a validated no-op, as
// in Read.
func (d *Device) ReadStrided(id PageID, dst []byte, off, n, stride, count int) error {
	if count < 0 {
		return fmt.Errorf("flash: strided read count %d negative", count)
	}
	return d.readSpans(id, dst, off, n, stride, count, nil)
}

// ReadGather is ReadStrided over the listed slots only: it loads the
// page once and transfers the n-byte span at off+s*stride of each slot
// s, into the same offset of dst, charging one page load and
// len(slots)*n bytes. Slots must be strictly ascending and
// non-negative: a DML rewriting k records of a page moves those k and
// no other.
func (d *Device) ReadGather(id PageID, dst []byte, off, n, stride int, slots []int) error {
	return d.readSpans(id, dst, off, n, stride, len(slots), slots)
}

// readSpans is the one bounds-and-charge path of ReadStrided (slots
// nil: slots 0..count-1) and ReadGather (count = len(slots)). Every
// check runs before the page is touched, so a failed read moves no
// counter and no byte.
func (d *Device) readSpans(id PageID, dst []byte, off, n, stride, count int, slots []int) error {
	if d.closed {
		return ErrDeviceClose
	}
	ps := d.params.PageSize
	if off < 0 || n < 0 {
		return fmt.Errorf("flash: span read off %d n %d negative", off, n)
	}
	last := count - 1 // the highest slot read
	if slots != nil {
		for i, s := range slots {
			if s < 0 || i > 0 && s <= slots[i-1] {
				return fmt.Errorf("flash: gather slots %v not ascending and non-negative", slots)
			}
		}
		last = slots[len(slots)-1]
	}
	if n == 0 || count == 0 {
		return d.checkMapped(id)
	}
	if off > ps || n > ps || last >= ps || last > 0 && (stride < n || stride > ps) {
		return fmt.Errorf("flash: read of %d spans of %d bytes to slot %d, stride %d, out of page or overlapping", count, n, last, stride)
	}
	end := off + n + last*stride
	if end > ps {
		return fmt.Errorf("flash: span read ends at %d, past the page", end)
	}
	if len(dst) < end {
		return fmt.Errorf("flash: dst too small: %d < %d", len(dst), end)
	}
	if err := d.checkMapped(id); err != nil {
		return err
	}
	pp := int(d.l2p[id])
	blk, o := pp/d.params.PagesPerBlock, pp%d.params.PagesPerBlock
	src := d.data[blk][o*ps : (o+1)*ps]
	for i := 0; i < count; i++ {
		at := off + i*stride
		if slots != nil {
			at = off + slots[i]*stride
		}
		copy(dst[at:at+n], src[at:at+n])
	}
	d.c.PageReads++
	d.c.BytesToRAM += uint64(count * n)
	return nil
}

// ReadReq is one page read inside a coalesced ReadMulti request.
type ReadReq struct {
	ID  PageID
	Dst []byte // must hold N bytes
	N   int    // bytes to transfer from the start of the page
}

// ReadMulti coalesces several page reads into one request, the
// secure-side analogue of bus batching: read-ahead pipelines hand the
// FTL a whole run of (typically adjacent) pages at once instead of
// issuing them one call at a time. The cost model is unchanged —
// counters advance by exactly what the equivalent sequence of Read
// calls would charge (one page load each, per-byte transfers), so
// coalescing is simulated-time-neutral by construction; zero-length
// entries charge nothing, as in Read. All requests are validated before
// any counter moves, so a failed batch leaves the accounting untouched.
func (d *Device) ReadMulti(reqs []ReadReq) error {
	if d.closed {
		return ErrDeviceClose
	}
	for _, r := range reqs {
		if r.N < 0 || r.N > d.params.PageSize {
			return fmt.Errorf("flash: read size %d out of range", r.N)
		}
		if len(r.Dst) < r.N {
			return fmt.Errorf("flash: dst too small: %d < %d", len(r.Dst), r.N)
		}
		if err := d.checkMapped(r.ID); err != nil {
			return err
		}
	}
	for _, r := range reqs {
		if r.N == 0 {
			continue
		}
		pp := int(d.l2p[r.ID])
		blk, off := pp/d.params.PagesPerBlock, pp%d.params.PagesPerBlock
		src := d.data[blk][off*d.params.PageSize:]
		copy(r.Dst[:r.N], src[:r.N])
		d.c.PageReads++
		d.c.BytesToRAM += uint64(r.N)
	}
	return nil
}

// program finds a free physical page, copies data into it and returns it.
// Runs garbage collection when the free pool drops into the reserve.
func (d *Device) program(data []byte) (int, error) {
	if d.freePhys <= d.params.PagesPerBlock {
		if err := d.collect(); err != nil {
			return 0, err
		}
	}
	return d.place(data, -1)
}

// place copies data into the next free physical page at or after the
// frontier, never one in block skip (-1: any block), and returns it.
func (d *Device) place(data []byte, skip int) (int, error) {
	total := d.params.Blocks * d.params.PagesPerBlock
	for scanned := 0; scanned < total; scanned++ {
		pp := d.frontier
		d.frontier++
		if d.frontier == total {
			d.frontier = 0
		}
		blk, off := pp/d.params.PagesPerBlock, pp%d.params.PagesPerBlock
		if d.state[pp] != physFree || blk == skip {
			continue
		}
		if d.data[blk] == nil {
			if n := len(d.spare); n > 0 {
				d.data[blk], d.spare = d.spare[n-1], d.spare[:n-1]
			} else {
				d.data[blk] = make([]byte, d.params.PagesPerBlock*d.params.PageSize)
			}
		}
		page := d.data[blk][off*d.params.PageSize : (off+1)*d.params.PageSize]
		copy(page, data)
		for i := len(data); i < len(page); i++ {
			page[i] = 0
		}
		d.state[pp] = physValid
		d.blockValid[blk]++
		d.freePhys--
		return pp, nil
	}
	return 0, ErrDeviceFull
}

func (d *Device) invalidate(pp int) {
	blk := pp / d.params.PagesPerBlock
	d.state[pp] = physInvalid
	d.p2l[pp] = -1
	d.blockValid[blk]--
	d.blockInval[blk]++
	// Nothing can read a block without a valid page: hand its host
	// buffer to the next block programmed instead of holding dead bytes
	// until an erase that, on a roomy device, never comes. place
	// overwrites each page in full, so stale content is harmless.
	if d.blockValid[blk] == 0 {
		if len(d.spare) < d.params.ReserveBlocks {
			d.spare = append(d.spare, d.data[blk])
		}
		d.data[blk] = nil
	}
}

// collect performs greedy garbage collection: pick the block with the most
// invalid pages, relocate its valid pages (counted as FTL reads+writes),
// then erase it. Repeats until a comfortable amount of space is free.
func (d *Device) collect() error {
	target := 2 * d.params.PagesPerBlock
	guard := d.params.Blocks + 1
	for d.freePhys < target {
		guard--
		if guard == 0 {
			return ErrDeviceFull
		}
		victim := -1
		var best int32 = 0
		for b := 0; b < d.params.Blocks; b++ {
			if d.blockInval[b] > best {
				best = d.blockInval[b]
				victim = b
			}
		}
		if victim < 0 {
			return ErrDeviceFull // nothing reclaimable
		}
		if err := d.eraseBlock(victim); err != nil {
			return err
		}
	}
	return nil
}

func (d *Device) eraseBlock(b int) error {
	ppb, psz := d.params.PagesPerBlock, d.params.PageSize
	start := b * ppb
	// Relocate still-valid pages: program the copy into another block
	// first (the erase below wipes this one, so a copy placed here would
	// be lost), then retire the source. The source page itself is the
	// copy's input; it cannot alias a destination outside its block.
	for off := 0; off < ppb; off++ {
		pp := start + off
		if d.state[pp] != physValid {
			continue
		}
		owner := d.p2l[pp]
		np, err := d.place(d.data[b][off*psz:(off+1)*psz], b)
		if err != nil {
			return err
		}
		d.invalidate(pp)
		d.l2p[owner] = int32(np)
		d.p2l[np] = owner
		d.c.GCPageMoves++
		d.c.PageReads++
		d.c.PageWrites++
	}
	// Erase: every page in the block becomes free.
	for off := 0; off < ppb; off++ {
		pp := start + off
		if d.state[pp] == physInvalid {
			d.freePhys++
		}
		d.state[pp] = physFree
		d.p2l[pp] = -1
	}
	d.blockInval[b] = 0
	d.blockValid[b] = 0
	d.erases[b]++
	d.c.BlockErases++
	return nil
}

// Close marks the device unusable; further operations fail.
func (d *Device) Close() { d.closed = true }
