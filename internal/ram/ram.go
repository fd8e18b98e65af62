// Package ram enforces the secure chip's tiny RAM budget (64KB in the
// paper, i.e. 32 buffers of 2KB — the flash I/O unit). Security dictates a
// small silicon die, hence the small RAM; every GhostDB operator must
// acquire its working memory here and fail over to multi-pass algorithms
// when the budget is tight, exactly as the paper's operators do (§3.4).
//
// # Reservation protocol
//
// Operators declare their needs and receive what the budget can
// actually give, instead of computing "what is left" and racing the
// grants other pipeline stages hold:
//
//   - Plan(claims...) admits a set of named sub-reservations atomically:
//     every operator stage (a merge's streams and spill writer, a
//     post-select's staging chunk, reader and writer, ...) declares its
//     buffer needs up front as a Claim {Name, Min, Want}. Either every
//     claim gets at least Min buffers or the whole plan fails with
//     ErrExhausted; leftover budget then tops claims up toward Want in
//     declaration order, so a claim that wants all its data gets what the
//     other claims leave. Stages read their allotment with
//     Reservation.Buffers(name) and release it with one
//     Reservation.Release().
//
//   - ReserveBuffers(min, want) grants the largest feasible allocation
//     in [min, want] buffers (internal/sched sizes each session's grant
//     with it), and Alloc a byte count (a Bloom filter's).
//
// Two kinds of operator read Available() and size themselves from it:
// the sublist reductions, which union runs until the set fits the
// stream buffers left free, and the Bloom filters (Post-Filter, σVH),
// which take a budget of what their stage leaves.
//
// # Concurrency
//
// A Manager is safe for concurrent use: reservation and release from
// multiple query sessions are serialized by an internal mutex, and every
// ReserveBuffers/Plan decision is atomic (no interleaving between the
// "what is free" check and the allocation). This is what lets
// internal/sched run several admitted sessions against one budget.
// Grants and Reservations themselves still belong to a single query:
// only their Release may be called from another goroutine.
//
// # Per-operator minimums
//
// The executor's operators degrade to multi-pass variants instead of
// erroring, so each needs only a small fixed number of free buffers to
// make progress. Those minimums are the Min of each stage's claims; the
// planner sums them into the admission floor from the same query shape
// the operators claim from (internal/exec shape.go and Footprint). The
// Bloom filters are pure optimizations: when no RAM is left for a
// useful filter the operator proceeds unfiltered instead of failing.
//
// Tests assert the engine's DB.Leaked() after every query to catch
// operators that forget to release grants on error paths: it reads
// Manager.Leaked() on each shared budget and the scheduler's count of
// sessions released while their private budget still held claims.
package ram

import (
	"errors"
	"fmt"
	"sync"
)

// DefaultBudget is the paper's secure-chip RAM size (Table 1).
const DefaultBudget = 65536

// ErrExhausted is returned when an allocation does not fit in the
// remaining budget.
var ErrExhausted = errors.New("ram: budget exhausted")

// Manager tracks the secure RAM budget. The zero value is unusable; use
// NewManager. All methods are safe for concurrent use.
type Manager struct {
	budget  int
	bufSize int

	mu        sync.Mutex
	inUse     int
	highWater int
	grants    int
}

// NewManager creates a manager with a total byte budget and the buffer
// granularity (the flash page size).
func NewManager(budget, bufSize int) *Manager {
	if budget <= 0 || bufSize <= 0 || budget < bufSize {
		panic(fmt.Sprintf("ram: invalid budget %d / buffer %d", budget, bufSize))
	}
	return &Manager{budget: budget, bufSize: bufSize}
}

// Budget returns the total byte budget.
func (m *Manager) Budget() int { return m.budget }

// BufferSize returns the allocation granularity in bytes.
func (m *Manager) BufferSize() int { return m.bufSize }

// Buffers returns the total budget expressed in whole buffers.
func (m *Manager) Buffers() int { return m.budget / m.bufSize }

// Available returns the bytes currently free.
func (m *Manager) Available() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.budget - m.inUse
}

// AvailableBuffers returns the number of whole buffers currently free.
func (m *Manager) AvailableBuffers() int { return m.Available() / m.bufSize }

// InUse returns the bytes currently allocated.
func (m *Manager) InUse() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inUse
}

// HighWater returns the maximum bytes ever simultaneously allocated.
func (m *Manager) HighWater() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.highWater
}

// Grant is a live RAM reservation. Release it exactly once.
type Grant struct {
	m        *Manager
	bytes    int
	released bool
}

// allocLocked reserves n bytes; the caller holds m.mu.
func (m *Manager) allocLocked(n int) (*Grant, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ram: non-positive allocation %d", n)
	}
	if m.inUse+n > m.budget {
		return nil, fmt.Errorf("%w: want %d, free %d of %d", ErrExhausted, n, m.budget-m.inUse, m.budget)
	}
	m.inUse += n
	m.grants++
	if m.inUse > m.highWater {
		m.highWater = m.inUse
	}
	return &Grant{m: m, bytes: n}, nil
}

// Alloc reserves n bytes, or fails with ErrExhausted.
func (m *Manager) Alloc(n int) (*Grant, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.allocLocked(n)
}

// AllocBuffers reserves n whole buffers.
func (m *Manager) AllocBuffers(n int) (*Grant, error) {
	return m.Alloc(n * m.bufSize)
}

// ReserveBuffers grants the largest feasible allocation in [min, want]
// whole buffers: want when it fits, whatever is free otherwise, and an
// ErrExhausted failure only when even min does not fit. Operators size
// their chunking from the grant they actually received and fall back to
// more passes when min is all they get. The clamp-and-allocate step is
// atomic with respect to concurrent reservations.
func (m *Manager) ReserveBuffers(min, want int) (*Grant, error) {
	if min <= 0 || want < min {
		return nil, fmt.Errorf("ram: invalid reservation [%d, %d] buffers", min, want)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := want
	if free := (m.budget - m.inUse) / m.bufSize; n > free {
		n = free
	}
	if n < min {
		return nil, fmt.Errorf("%w: need at least %d buffers, %d free of %d",
			ErrExhausted, min, (m.budget-m.inUse)/m.bufSize, m.Buffers())
	}
	return m.allocLocked(n * m.bufSize)
}

// Bytes returns the size of the reservation.
func (g *Grant) Bytes() int { return g.bytes }

// Buffers returns the reservation size in whole buffers.
func (g *Grant) Buffers() int { return g.bytes / g.m.bufSize }

// Release returns the reservation to the pool. Releasing twice panics:
// that is a bookkeeping bug, not a runtime condition.
func (g *Grant) Release() {
	if g == nil {
		return
	}
	g.m.mu.Lock()
	defer g.m.mu.Unlock()
	if g.released {
		panic("ram: double release")
	}
	g.released = true
	g.m.inUse -= g.bytes
	g.m.grants--
}

// Claim declares one pipeline stage's buffer needs for a Plan: at least
// Min whole buffers (the stage cannot run with less), up to Want (what it
// can profitably use).
type Claim struct {
	Name string
	Min  int
	Want int
}

// Reservation is the live result of a Plan: one sub-grant per named
// claim. Release it exactly once to return the whole pipeline's memory.
// A Reservation belongs to the query that planned it; unlike the Manager
// it is not safe for concurrent use.
type Reservation struct {
	m     *Manager
	parts []part
	// inline holds the parts of a plan of up to two claims (a reduction
	// pass's writer and streams), so such a plan costs one allocation.
	inline [2]part
}

// part is one claim's sub-grant; bytes is 0 for a zero-min claim that
// got nothing and once the reservation is released.
type part struct {
	name  string
	bytes int
}

// Plan admits a set of named sub-reservations atomically. Every claim
// receives at least Min buffers or the whole plan fails with ErrExhausted
// (nothing is allocated on failure); leftover budget then tops claims up
// toward Want in declaration order. This lets the stages of one pipeline
// declare their needs up front instead of racing each other for
// leftovers. The whole plan is admitted under one lock, so concurrent
// sessions can never observe a half-allocated plan.
func (m *Manager) Plan(claims ...Claim) (*Reservation, error) {
	need := 0
	for i, c := range claims {
		if c.Name == "" || c.Min < 0 || c.Want < c.Min {
			return nil, fmt.Errorf("ram: invalid claim %+v", c)
		}
		for _, d := range claims[:i] {
			if d.Name == c.Name {
				return nil, fmt.Errorf("ram: duplicate claim %q", c.Name)
			}
		}
		need += c.Min
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	free := (m.budget - m.inUse) / m.bufSize
	if need > free {
		return nil, fmt.Errorf("%w: plan needs %d buffers, %d free of %d",
			ErrExhausted, need, free, m.Buffers())
	}
	r := &Reservation{m: m}
	r.parts = r.inline[:0]
	if len(claims) > len(r.inline) {
		r.parts = make([]part, 0, len(claims))
	}
	// Distribute: mins first, then top up toward wants in order.
	spare := free - need
	for _, c := range claims {
		give := c.Min + min(c.Want-c.Min, spare)
		spare -= give - c.Min
		r.parts = append(r.parts, part{name: c.Name, bytes: give * m.bufSize})
		if give > 0 {
			m.inUse += give * m.bufSize
			m.grants++
		}
	}
	m.highWater = max(m.highWater, m.inUse)
	return r, nil
}

// Buffers returns the whole buffers granted to a named claim (0 for a
// zero-min claim that got nothing, or an unknown name).
func (r *Reservation) Buffers(name string) int { return r.Bytes(name) / r.m.bufSize }

// Bytes returns the byte size granted to a named claim.
func (r *Reservation) Bytes(name string) int {
	for _, p := range r.parts {
		if p.name == name {
			return p.bytes
		}
	}
	return 0
}

// Release returns every sub-grant to the pool. Safe on a nil
// reservation, and idempotent — unlike Grant.Release — so an operator
// can return a pipeline's memory early and still keep a deferred
// Release for its error paths.
func (r *Reservation) Release() {
	if r == nil {
		return
	}
	r.m.mu.Lock()
	defer r.m.mu.Unlock()
	for i := range r.parts {
		if p := &r.parts[i]; p.bytes > 0 {
			r.m.inUse -= p.bytes
			r.m.grants--
			p.bytes = 0
		}
	}
}

// Leaked reports whether any grants are outstanding; tests use this to
// catch operators that forget to release buffers.
func (m *Manager) Leaked() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.grants != 0
}
