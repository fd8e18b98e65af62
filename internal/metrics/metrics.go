// Package metrics turns the raw I/O counters of the flash simulator and
// the USB channel into simulated execution time, following the cost model
// of Table 1 in the paper: 25µs to load a page from flash into the data
// register, 200µs to program a page, 50ns per byte transferred between the
// data register and RAM, plus communication time at the configured link
// throughput. It also provides named cost spans so experiments can break a
// query's cost down per operator (Figures 15 and 16).
package metrics

import (
	"time"

	"ghostdb/internal/bus"
	"ghostdb/internal/flash"
)

// Model holds the cost parameters.
type Model struct {
	ReadPage   time.Duration // flash -> data register latency per page
	WritePage  time.Duration // data register -> flash program time per page
	EraseBlock time.Duration // block erase time (0 in the paper's model)
	PerByte    time.Duration // data register -> RAM per byte
}

// DefaultModel returns the Table 1 parameters.
func DefaultModel() Model {
	return Model{
		ReadPage:  25 * time.Microsecond,
		WritePage: 200 * time.Microsecond,
		PerByte:   50 * time.Nanosecond,
	}
}

// Sample is a combined snapshot of flash and bus activity.
type Sample struct {
	Flash   flash.Counters
	BusDown uint64
	BusUp   uint64
}

// Sub returns s - o component-wise.
func (s Sample) Sub(o Sample) Sample {
	return Sample{
		Flash:   s.Flash.Sub(o.Flash),
		BusDown: s.BusDown - o.BusDown,
		BusUp:   s.BusUp - o.BusUp,
	}
}

// Add returns s + o component-wise.
func (s Sample) Add(o Sample) Sample {
	return Sample{
		Flash:   s.Flash.Add(o.Flash),
		BusDown: s.BusDown + o.BusDown,
		BusUp:   s.BusUp + o.BusUp,
	}
}

// IOTime converts the flash component of a sample to simulated time.
func (m Model) IOTime(s Sample) time.Duration {
	t := time.Duration(s.Flash.PageReads)*m.ReadPage +
		time.Duration(s.Flash.PageWrites)*m.WritePage +
		time.Duration(s.Flash.BlockErases)*m.EraseBlock +
		time.Duration(s.Flash.BytesToRAM)*m.PerByte
	return t
}

// CommTime converts the bus component of a sample to simulated time at the
// given link throughput (MB/s).
func (m Model) CommTime(s Sample, throughputMBps float64) time.Duration {
	if throughputMBps <= 0 {
		return 0
	}
	bytes := float64(s.BusDown + s.BusUp)
	secs := bytes / (throughputMBps * 1e6)
	return time.Duration(secs * float64(time.Second))
}

// Time is IOTime + CommTime.
func (m Model) Time(s Sample, throughputMBps float64) time.Duration {
	return m.IOTime(s) + m.CommTime(s, throughputMBps)
}

// Collector attributes I/O activity to named spans. Spans may nest;
// activity is attributed to the innermost open span, and enclosing spans
// see only their own direct activity (so the per-operator decomposition of
// Figure 15 sums to the total).
//
// A Collector is single-writer: Span/Reset must not be called
// concurrently. Once collection quiesces, the snapshot accessors (Ops,
// ThroughputMBps) are read-only and safe to call from any number of
// goroutines.
type Collector struct {
	dev   *flash.Device
	ch    *bus.Channel
	model Model
	// mbps is the link speed snapshotted at construction, so a
	// collector's communication timings are computed against one
	// consistent speed even if the knob changes mid-collection.
	mbps float64

	// spans holds one accumulator per span name, in first-opened order;
	// a name is interned to its slot by a scan (a query uses a dozen
	// names, all package constants, so nearly every probe is a length or
	// pointer comparison). order lists the slots in first-completed
	// order, which is what Ops reports. stack is the open spans,
	// innermost last, and last the counters when a span last opened or
	// closed: whatever moved since belongs to the innermost open span.
	spans []spanAcc
	order []int
	stack []int
	last  Sample
}

type spanAcc struct {
	name string
	own  Sample
	done bool // completed at least once, so listed in order
}

// NewCollector creates a collector over the given device and channel.
func NewCollector(dev *flash.Device, ch *bus.Channel, model Model) *Collector {
	return &Collector{dev: dev, ch: ch, model: model, mbps: ch.ThroughputMBps()}
}

// ThroughputMBps returns the link speed snapshotted at construction —
// the single source of truth for this collection's communication
// timings.
func (c *Collector) ThroughputMBps() float64 { return c.mbps }

func (c *Collector) now() Sample {
	s := Sample{Flash: c.dev.Counters()}
	s.BusDown, s.BusUp = c.ch.Counters()
	return s
}

// Reset clears all recorded spans and the underlying counters.
func (c *Collector) Reset() {
	if len(c.stack) != 0 {
		panic("metrics: reset with open spans")
	}
	c.spans, c.order = c.spans[:0], c.order[:0]
	c.dev.ResetCounters()
	c.ch.ResetCounters()
	c.last = Sample{}
}

// Span runs f, attributing its direct I/O activity to name.
func (c *Collector) Span(name string, f func() error) error {
	c.settle()
	i := c.slot(name)
	if i < 0 {
		i = len(c.spans)
		c.spans = append(c.spans, spanAcc{name: name})
	}
	c.stack = append(c.stack, i)
	err := f()
	c.settle()
	c.stack = c.stack[:len(c.stack)-1]
	if !c.spans[i].done {
		c.spans[i].done = true
		c.order = append(c.order, i)
	}
	return err
}

// settle credits the activity since the last span boundary to the
// innermost open span (to nobody when none is open). It runs twice per
// span, several spans per tuple, so the delta is added field by field in
// place instead of through Sample.Sub/Add temporaries (half the cost);
// TestSettleCoversEveryCounter fails when a counter is added and not
// listed here.
func (c *Collector) settle() {
	now := c.now()
	if n := len(c.stack); n > 0 {
		own, last := &c.spans[c.stack[n-1]].own, &c.last
		own.Flash.PageReads += now.Flash.PageReads - last.Flash.PageReads
		own.Flash.PageWrites += now.Flash.PageWrites - last.Flash.PageWrites
		own.Flash.BlockErases += now.Flash.BlockErases - last.Flash.BlockErases
		own.Flash.BytesToRAM += now.Flash.BytesToRAM - last.Flash.BytesToRAM
		own.Flash.GCPageMoves += now.Flash.GCPageMoves - last.Flash.GCPageMoves
		own.BusDown += now.BusDown - last.BusDown
		own.BusUp += now.BusUp - last.BusUp
	}
	c.last = now
}

// slot returns the index of a span name in spans, or -1.
func (c *Collector) slot(name string) int {
	for i := range c.spans {
		if c.spans[i].name == name {
			return i
		}
	}
	return -1
}

// Op is one completed span's cost: its accumulated activity and its
// full simulated duration — I/O plus communication at the collector's
// snapshotted link speed.
type Op struct {
	Name   string
	Sample Sample
	Sim    time.Duration
}

// Ops returns every completed span, in first-completed order. Because
// activity is attributed to the innermost open span only, summing Sim
// over the list decomposes the session's attributed cost without double
// counting; activity outside every span is not included (use the Device
// counters for grand totals).
func (c *Collector) Ops() []Op {
	out := make([]Op, len(c.order))
	for i, slot := range c.order {
		sp := &c.spans[slot]
		out[i] = Op{Name: sp.name, Sample: sp.own, Sim: c.model.Time(sp.own, c.mbps)}
	}
	return out
}
