// Package ram enforces the secure chip's tiny RAM budget (64KB in the
// paper, i.e. 32 buffers of 2KB — the flash I/O unit). Security dictates a
// small silicon die, hence the small RAM; every GhostDB operator must
// acquire its working memory here and fail over to multi-pass algorithms
// when the budget is tight, exactly as the paper's operators do (§3.4).
//
// # Reservation protocol
//
// Operators never compute "what is left" with Available() arithmetic —
// that pattern races against grants held by other pipeline stages and
// turns a small budget into a hard error. Instead they declare needs and
// receive what the budget can actually give:
//
//   - ReserveBuffers(min, want) grants the largest feasible allocation
//     in [min, want] buffers. An operator sizes its chunking (staging
//     area, batch capacity) from the grant it received and runs more
//     passes when min is all it gets. ReserveBuffers fails (wrapping
//     ErrExhausted) only when even min does not fit.
//
//   - Plan(claims...) admits a set of named sub-reservations atomically:
//     every pipeline stage (QEPSJ stream, merge writer, post-select
//     staging, ...) declares its buffer needs up front as a Claim
//     {Name, Min, Want}. Either every claim gets at least Min buffers or
//     the whole plan fails with ErrExhausted; leftover budget then tops
//     claims up toward Want in declaration order. Stages read their
//     actual allotment with Reservation.Buffers(name) and the operator
//     releases the whole pipeline with one Reservation.Release().
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
// With the reservation protocol the executor's operators degrade to
// multi-pass variants instead of erroring; each needs only a small fixed
// number of free buffers to make progress (its plan minimum):
//
//   - Merge sublist reduction: 3 buffers (2 input streams + 1 spill
//     writer); each reduction pass unions as many sublists as fit.
//   - QEPSJ pipeline (Merge→SJoin→ProbeBF→Store): 1 writer per stored
//     column + 1 anchor writer + 1 SKT reader, reserved up front so the
//     merge reduction above never eats them.
//   - Post-select: 3 buffers (1 id-staging chunk + 1 column reader + 1
//     position writer); a smaller staging grant only means the result
//     column is re-scanned more times (Figure 11's cost model).
//   - Column sort (σVH without visible data): 3 buffers (1 sort chunk +
//     1 reader + 1 writer); small chunks produce more runs, which are
//     consolidated by multi-pass unions.
//   - MJoin: 1 buffer per open reader/writer (σVH reader, spool cursor,
//     hidden-image reader, QEPSJ column reader, output writer — only
//     those the table shape needs) + 1 batch buffer; a minimal batch
//     grant only means more passes over the QEPSJ column.
//   - Final join: 1 buffer per fixed reader (anchor column, anchor spool,
//     anchor hidden image, one per projected id column) + 1 tuple-cursor
//     buffer per joined table; MJoin batch runs are consolidated first so
//     one cursor buffer per table always suffices.
//   - Bloom filters (Post-Filter, σVH) are pure optimizations: when no
//     RAM is left for a useful filter the operator proceeds unfiltered
//     instead of failing.
//
// Tests assert Manager.Leaked() after every query to catch operators that
// forget to release grants on error paths.
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
	parts map[string]*Grant
	order []string
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
	seen := make(map[string]bool, len(claims))
	for _, c := range claims {
		if c.Name == "" || c.Min < 0 || c.Want < c.Min {
			return nil, fmt.Errorf("ram: invalid claim %+v", c)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("ram: duplicate claim %q", c.Name)
		}
		seen[c.Name] = true
		need += c.Min
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	free := (m.budget - m.inUse) / m.bufSize
	if need > free {
		return nil, fmt.Errorf("%w: plan needs %d buffers, %d free of %d",
			ErrExhausted, need, free, m.Buffers())
	}
	// Distribute: mins first, then top up toward wants in order.
	give := make([]int, len(claims))
	spare := free - need
	for i, c := range claims {
		give[i] = c.Min
		if extra := c.Want - c.Min; extra > 0 {
			if extra > spare {
				extra = spare
			}
			give[i] += extra
			spare -= extra
		}
	}
	r := &Reservation{m: m, parts: make(map[string]*Grant, len(claims))}
	for i, c := range claims {
		if give[i] == 0 {
			r.parts[c.Name] = nil
			r.order = append(r.order, c.Name)
			continue
		}
		g, err := m.allocLocked(give[i] * m.bufSize)
		if err != nil {
			// Unreachable: the mins were checked against free above and
			// the lock is held; unwind defensively all the same.
			for _, name := range r.order {
				if pg := r.parts[name]; pg != nil {
					pg.released = true
					m.inUse -= pg.bytes
					m.grants--
				}
			}
			return nil, err
		}
		r.parts[c.Name] = g
		r.order = append(r.order, c.Name)
	}
	return r, nil
}

// Buffers returns the whole buffers granted to a named claim (0 for a
// zero-min claim that got nothing, or an unknown name).
func (r *Reservation) Buffers(name string) int {
	g := r.parts[name]
	if g == nil {
		return 0
	}
	return g.Buffers()
}

// Bytes returns the byte size granted to a named claim.
func (r *Reservation) Bytes(name string) int {
	g := r.parts[name]
	if g == nil {
		return 0
	}
	return g.Bytes()
}

// Release returns every sub-grant to the pool. Safe on a nil
// reservation, and idempotent — unlike Grant.Release — so an operator
// can return a pipeline's memory early and still keep a deferred
// Release for its error paths.
func (r *Reservation) Release() {
	if r == nil {
		return
	}
	for _, name := range r.order {
		if g := r.parts[name]; g != nil {
			g.Release()
			r.parts[name] = nil
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
