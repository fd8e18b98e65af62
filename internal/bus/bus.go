// Package bus models the USB link between the Untrusted computer and the
// Secure USB key. It counts every byte in each direction so the cost model
// can charge communication time (Figure 14 of the paper varies the link
// throughput from 0.3 to 10 MBps), and it records an audit trail of all
// Secure→Untrusted traffic: GhostDB's security argument is that the only
// information ever leaving the secure token is the query text itself, and
// the auditor lets tests prove that invariant for every execution strategy.
package bus

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Direction of a transfer across the link.
type Direction int

const (
	// Down is Untrusted -> Secure (visible data entering the token).
	Down Direction = iota
	// Up is Secure -> Untrusted (must only ever carry query text).
	Up
)

func (d Direction) String() string {
	if d == Down {
		return "down"
	}
	return "up"
}

// DefaultThroughputMBps is USB 2.0 full speed (12 Mb/s ≈ 1.5 MB/s), the
// platform assumed in §2.2.
const DefaultThroughputMBps = 1.5

// Record is one audited transfer.
type Record struct {
	Dir     Direction
	Kind    string // e.g. "query", "vis-ids", "vis-values"
	Bytes   int
	Payload string // kept only for Up records (they must be tiny)
}

// Req is one message in a coalesced TransferBatch.
type Req struct {
	Kind    string
	Bytes   int
	Payload string // retained for Up messages only, as in Transfer
}

// Channel is the simulated link. The audit trail and the throughput knob
// are mutex-protected so sessions and control knobs may touch the channel
// concurrently; transfers themselves are still serialized by the
// scheduler's secure-token lock (the link is a serial resource). The byte
// counters are atomics, written under mu but read without it: the cost
// collector snapshots them around every span, several times per tuple.
type Channel struct {
	downBytes atomic.Uint64
	upBytes   atomic.Uint64

	mu             sync.Mutex
	throughputMBps float64
	coalesced      uint64
	records        []Record
	auditPayloads  bool
	// auditCap > 0 bounds the audit trail to a ring of that many records
	// (ringStart marks the oldest slot once the ring has wrapped);
	// 0 keeps the full unbounded trail, the historical behavior tests
	// rely on for byte-parity proofs.
	auditCap  int
	ringStart int
	dropped   uint64
}

// NewChannel creates a link with the given throughput in MB/s.
func NewChannel(throughputMBps float64) *Channel {
	if throughputMBps <= 0 {
		throughputMBps = DefaultThroughputMBps
	}
	return &Channel{throughputMBps: throughputMBps, auditPayloads: true}
}

// SetAuditLimit bounds the audit trail. n > 0 keeps only the most
// recent n records in a ring buffer (older records are dropped and
// counted); n < 0 disables payload auditing entirely (byte counters
// keep working — benches and long-lived servers use this so records
// cannot grow without limit); n == 0 restores the full unbounded trail
// that parity tests require. Changing the limit resets the trail.
func (c *Channel) SetAuditLimit(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.records = nil
	c.ringStart = 0
	switch {
	case n < 0:
		c.auditPayloads, c.auditCap = false, 0
	case n == 0:
		c.auditPayloads, c.auditCap = true, 0
	default:
		c.auditPayloads, c.auditCap = true, n
	}
}

// AuditDropped reports how many records the ring bound has discarded.
func (c *Channel) AuditDropped() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// recordLocked appends one audit record, honoring the ring bound.
func (c *Channel) recordLocked(r Record) {
	if !c.auditPayloads {
		return
	}
	if c.auditCap > 0 && len(c.records) >= c.auditCap {
		c.records[c.ringStart] = r
		c.ringStart = (c.ringStart + 1) % c.auditCap
		c.dropped++
		return
	}
	c.records = append(c.records, r)
}

// SetThroughput changes the modeled link speed (MB/s).
func (c *Channel) SetThroughput(mbps float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if mbps > 0 {
		c.throughputMBps = mbps
	}
}

// ThroughputMBps returns the modeled link speed.
func (c *Channel) ThroughputMBps() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.throughputMBps
}

// Transfer accounts for n bytes moving in direction dir. kind labels the
// message for the audit trail. For Up transfers, payload should be the
// full content (queries are small); it is retained for auditing.
func (c *Channel) Transfer(dir Direction, kind string, n int, payload string) error {
	if n < 0 {
		return fmt.Errorf("bus: negative transfer %d", n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch dir {
	case Down:
		c.downBytes.Add(uint64(n))
		payload = "" // visible data content is not interesting to audit
	case Up:
		c.upBytes.Add(uint64(n))
	default:
		return fmt.Errorf("bus: unknown direction %d", dir)
	}
	c.recordLocked(Record{Dir: dir, Kind: kind, Bytes: n, Payload: payload})
	return nil
}

// TransferBatch coalesces several same-direction messages into one
// accounted round-trip: the byte counters advance by the sum, a single
// audit record is written (kinds joined, payloads of Up messages
// concatenated so parity proofs still see every uplink byte), and the
// coalesced counter grows by the number of round-trips saved. The cost
// model is purely per-byte, so batching never changes simulated time —
// it exists to cut per-message bookkeeping and to model the real win of
// issuing one bulk USB request instead of many small ones.
func (c *Channel) TransferBatch(dir Direction, reqs []Req) error {
	if len(reqs) == 0 {
		return nil
	}
	total := 0
	for _, r := range reqs {
		if r.Bytes < 0 {
			return fmt.Errorf("bus: negative transfer %d", r.Bytes)
		}
		total += r.Bytes
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var payload string
	switch dir {
	case Down:
		c.downBytes.Add(uint64(total))
	case Up:
		c.upBytes.Add(uint64(total))
		for _, r := range reqs {
			payload += r.Payload
		}
	default:
		return fmt.Errorf("bus: unknown direction %d", dir)
	}
	c.coalesced += uint64(len(reqs) - 1)
	kind := reqs[0].Kind
	for _, r := range reqs[1:] {
		kind += "+" + r.Kind
	}
	c.recordLocked(Record{Dir: dir, Kind: kind, Bytes: total, Payload: payload})
	return nil
}

// Coalesced reports the cumulative number of bus round-trips saved by
// TransferBatch (messages merged beyond the first of each batch).
func (c *Channel) Coalesced() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coalesced
}

// Counters reports cumulative bytes in each direction. It takes no lock:
// a reader racing a transfer sees each direction's total before or after
// it, which is all a span delta needs.
func (c *Channel) Counters() (down, up uint64) {
	return c.downBytes.Load(), c.upBytes.Load()
}

// ResetCounters zeroes the byte counters and the audit trail.
func (c *Channel) ResetCounters() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.downBytes.Store(0)
	c.upBytes.Store(0)
	c.records = c.records[:0]
	c.ringStart = 0
	c.dropped = 0
}

// Records returns the audit trail (a copy, oldest first — ring-bounded
// trails are unrolled).
func (c *Channel) Records() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Record, 0, len(c.records))
	out = append(out, c.records[c.ringStart:]...)
	out = append(out, c.records[:c.ringStart]...)
	return out
}

// UplinkRecords returns only Secure->Untrusted transfers. A leak-free
// execution has exactly the query-text records here and nothing else.
func (c *Channel) UplinkRecords() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Record
	for i := range c.records {
		r := c.records[(c.ringStart+i)%len(c.records)]
		if r.Dir == Up {
			out = append(out, r)
		}
	}
	return out
}
