// Package sched turns GhostDB into a multi-client engine over one
// simulated secure token. The paper's platform is mono-user (§2.3): the
// key has a single tiny RAM budget and a serial flash/bus pipeline, so
// concurrency cannot mean "run two queries' I/O at once" — it means
// admitting several query sessions against the one budget and
// multiplexing the token between them without livelock, starvation or
// partial holds.
//
// The design follows the up-front-grant pattern of enclave query engines
// (ObliDB sizes every operator from a per-query memory grant): admission
// gives a session its whole RAM allotment atomically, as one elastic
// reservation in [MinBuffers, WantBuffers] on the shared ram.Manager, and
// the session then runs its operators against a private sub-budget of
// exactly that size. Two consequences:
//
//   - No mid-query RAM starvation: once admitted, a query's behaviour
//     (operator pass counts, and therefore its simulated cost) depends
//     only on its own grant, never on what other sessions do.
//   - No partial holds: a query either receives all its minimums or
//     remains queued; it can never camp on half its memory and deadlock
//     against another half-holder.
//
// Admission is strictly FIFO (head-of-line): a request that cannot be
// admitted blocks every request behind it. That is deliberate — it is
// the no-starvation guarantee. Because every session eventually releases
// its grant, the head's minimum (validated against the total budget at
// enqueue time) is eventually satisfiable, so the queue always drains.
//
// Execution on the simulated hardware stays serial: a session wraps its
// flash/bus work in Exclusive, which holds the token's single execution
// slot. Per-query counters therefore see only their own I/O and the
// simulated timings stay deterministic per query.
//
// FIFO admission guarantees no starvation, but under sustained
// open-loop overload (arrivals beyond the token's service rate) it also
// guarantees an unbounded queue. SetShedPolicy bounds the damage: once
// the predicted admission wait exceeds the configured limit, new
// requests are rejected at arrival with ErrOverloaded — holding nothing
// — so admitted queries keep bounded latency and overload becomes an
// explicit, countable signal instead of a silent latency cliff.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ghostdb/internal/ram"
)

// ErrNeverAdmissible marks a request whose minimum exceeds the total
// budget: it is rejected at admission time, before the query has run at
// all. The error also wraps ram.ErrExhausted, so callers treating every
// RAM shortage alike keep working; callers that care can distinguish a
// clean up-front denial from a mid-run exhaustion.
var ErrNeverAdmissible = errors.New("sched: session minimum exceeds the budget")

// ErrOverloaded marks a request shed at arrival because the scheduler
// predicted its admission-queue wait would exceed the configured bound
// (SetShedPolicy). Shedding keeps overload visible and bounded: under
// open-loop traffic beyond the token's capacity the queue would
// otherwise grow without limit and every query's latency with it.
// Rejected requests held nothing — no RAM, no queue slot.
var ErrOverloaded = errors.New("sched: overloaded, predicted queue wait exceeds the bound")

// Request declares a session's RAM needs in whole buffers: at least Min
// (admission blocks until Min is free), up to Want (the elastic top-up
// taken when the budget allows).
type Request struct {
	MinBuffers  int
	WantBuffers int
	// Unsheddable exempts the request from load shedding — set by
	// internal maintenance sessions (background compaction) that must
	// run precisely when the engine is busiest.
	Unsheddable bool
}

// Scheduler admits query sessions against one ram.Manager with a bounded
// number in flight, and owns the secure token's serial execution slot.
type Scheduler struct {
	ram *ram.Manager
	max int

	// token is the secure key's single execution slot (capacity 1). A
	// channel rather than a mutex so waiting for it can be abandoned on
	// context cancellation.
	token chan struct{}

	mu       sync.Mutex
	queue    []*waiter
	running  int
	admitted uint64 // admission sequence, for fairness assertions
	leaks    int    // sessions released with outstanding sub-grants
	onAdmit  func(wait time.Duration, grantBuffers int)
	onHold   func(hold time.Duration)

	maxWait time.Duration // shed bound; 0 disables shedding
	avgSlot time.Duration // EWMA of Exclusive hold times, the wait predictor
	sheds   uint64        // requests rejected with ErrOverloaded
}

type waiter struct {
	req   Request
	enq   time.Time     // when the request joined the queue
	ready chan *Session // buffered(1); receives the admitted session
}

// New creates a scheduler over the shared budget admitting at most
// maxConcurrent sessions at a time (values below 1 are clamped to 1).
func New(m *ram.Manager, maxConcurrent int) *Scheduler {
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	s := &Scheduler{ram: m, max: maxConcurrent, token: make(chan struct{}, 1)}
	s.token <- struct{}{}
	return s
}

// Running returns the number of admitted, unreleased sessions.
func (s *Scheduler) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// QueueLen returns the number of requests waiting for admission.
func (s *Scheduler) QueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Leaks counts sessions that were released while their private budget
// still held grants — operator bookkeeping bugs surfaced for tests.
func (s *Scheduler) Leaks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leaks
}

// SetAdmitObserver registers fn to be called at every admission with
// the wall-clock time the request spent in the queue and the buffers it
// was granted — the feed for queue-wait histograms and admission
// counters. Both values are scheduling bookkeeping over plan-derived
// floors: functions of query text and engine load, never of hidden
// data. fn runs under the scheduler's lock, so it must be fast and must
// not call back into the scheduler; set it once at engine construction,
// before traffic.
func (s *Scheduler) SetAdmitObserver(fn func(wait time.Duration, grantBuffers int)) {
	s.mu.Lock()
	s.onAdmit = fn
	s.mu.Unlock()
}

// SetHoldObserver registers fn to be called with the wall-clock time
// of every Exclusive hold — the feed for slot-occupancy histograms.
// Like the admit observer it is scheduling bookkeeping, runs under the
// scheduler's lock and is set once, before traffic.
func (s *Scheduler) SetHoldObserver(fn func(hold time.Duration)) {
	s.mu.Lock()
	s.onHold = fn
	s.mu.Unlock()
}

// SetShedPolicy bounds the admission-queue wait: an arriving request
// whose predicted wait exceeds maxWait is rejected immediately with
// ErrOverloaded instead of joining the queue. 0 (the default) disables
// shedding. The prediction is the scheduler's own bookkeeping — queue
// depth, running sessions, an EWMA of execution-slot hold times, and
// the age of the queue head — so overload detection costs no extra
// coordination and never consults query data.
func (s *Scheduler) SetShedPolicy(maxWait time.Duration) {
	s.mu.Lock()
	s.maxWait = maxWait
	s.mu.Unlock()
}

// Sheds counts requests rejected with ErrOverloaded since construction.
func (s *Scheduler) Sheds() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sheds
}

// predictedWaitLocked estimates how long a request arriving now would
// sit in the admission queue: everyone already queued or running will
// hold the serial execution slot for ~avgSlot each, and FIFO order
// means a new arrival cannot be admitted before the current head — so
// the head's age is a lower bound once the queue has stopped draining.
func (s *Scheduler) predictedWaitLocked() time.Duration {
	pred := time.Duration(len(s.queue)+s.running) * s.avgSlot
	if len(s.queue) > 0 {
		if age := time.Since(s.queue[0].enq); age > pred {
			pred = age
		}
	}
	return pred
}

// noteSlotHold feeds one Exclusive hold duration into the shed
// predictor's EWMA (alpha 1/4: jumpy enough to track load shifts,
// smooth enough to ignore one odd query) and the hold observer.
func (s *Scheduler) noteSlotHold(d time.Duration) {
	s.mu.Lock()
	if s.avgSlot == 0 {
		s.avgSlot = d
	} else {
		s.avgSlot = (3*s.avgSlot + d) / 4
	}
	if s.onHold != nil {
		s.onHold(d)
	}
	s.mu.Unlock()
}

// Acquire blocks until the request is admitted (FIFO order) or the
// context is cancelled. A cancelled request leaves the scheduler exactly
// as it found it: nothing reserved, nothing held, and the queue pumped so
// later requests are not blocked by the vacancy. When a shed policy is
// set, a request predicted to wait longer than the bound fails fast
// with ErrOverloaded instead of queueing.
func (s *Scheduler) Acquire(ctx context.Context, req Request) (*Session, error) {
	if req.MinBuffers < 1 {
		req.MinBuffers = 1
	}
	if req.WantBuffers < req.MinBuffers {
		req.WantBuffers = req.MinBuffers
	}
	if total := s.ram.Buffers(); req.MinBuffers > total {
		return nil, fmt.Errorf("sched: session minimum %d buffers exceeds the %d-buffer budget: %w (%w)",
			req.MinBuffers, total, ErrNeverAdmissible, ram.ErrExhausted)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	w := &waiter{req: req, enq: time.Now(), ready: make(chan *Session, 1)}
	s.mu.Lock()
	if s.maxWait > 0 && !req.Unsheddable {
		if wait := s.predictedWaitLocked(); wait > s.maxWait {
			s.sheds++
			s.mu.Unlock()
			return nil, fmt.Errorf("sched: predicted queue wait %v exceeds the %v bound: %w",
				wait.Round(time.Microsecond), s.maxWait, ErrOverloaded)
		}
	}
	s.queue = append(s.queue, w)
	s.pumpLocked()
	s.mu.Unlock()

	select {
	case sess := <-w.ready:
		return sess, nil
	case <-ctx.Done():
		s.mu.Lock()
		for i, q := range s.queue {
			if q == w {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				// Removing a waiter can unblock the ones behind it when
				// it was the head whose minimum did not fit.
				s.pumpLocked()
				s.mu.Unlock()
				return nil, ctx.Err()
			}
		}
		s.mu.Unlock()
		// Not queued anymore: admission raced the cancellation. The
		// session is (or is about to be) in the ready channel; take it
		// and hand it straight back.
		sess := <-w.ready
		sess.Release()
		return nil, ctx.Err()
	}
}

// pumpLocked admits from the head of the queue while slots and minimums
// allow. Strictly head-of-line: the first request that does not fit
// stops admission, so no later request can starve an earlier one.
func (s *Scheduler) pumpLocked() {
	for len(s.queue) > 0 && s.running < s.max {
		w := s.queue[0]
		g, err := s.ram.ReserveBuffers(w.req.MinBuffers, w.req.WantBuffers)
		if err != nil {
			return // head waits for a release; everyone behind waits too
		}
		s.queue = s.queue[1:]
		s.running++
		s.admitted++
		wait := time.Since(w.enq)
		if s.onAdmit != nil {
			s.onAdmit(wait, g.Buffers())
		}
		sess := &Session{
			s:     s,
			grant: g,
			seq:   s.admitted,
			wait:  wait,
			priv:  ram.NewManager(g.Bytes(), s.ram.BufferSize()),
		}
		w.ready <- sess
	}
}

// Session is one admitted query's handle: a private RAM budget carved out
// of the shared manager, a fairness sequence number, and access to the
// token's serial execution slot.
type Session struct {
	s     *Scheduler
	grant *ram.Grant
	priv  *ram.Manager
	seq   uint64
	wait  time.Duration // time spent in the admission queue

	mu       sync.Mutex
	released bool
}

// RAM returns the session's private budget. Operators reserve from it
// exactly as they would from the global manager; its size is fixed at
// admission, so the query's RAM behaviour is isolated from other
// sessions.
func (sess *Session) RAM() *ram.Manager { return sess.priv }

// Buffers returns the session's granted budget in whole buffers.
func (sess *Session) Buffers() int { return sess.grant.Buffers() }

// Seq returns the admission sequence number (1, 2, ... in admission
// order); tests use it to assert FIFO fairness.
func (sess *Session) Seq() uint64 { return sess.seq }

// QueueWait returns the wall-clock time the session's request spent in
// the admission queue — the value the admit observer saw.
func (sess *Session) QueueWait() time.Duration { return sess.wait }

// Exclusive runs fn holding the secure token's single execution slot,
// serializing all simulated flash/bus access across sessions. The wait
// for the slot can be abandoned via ctx; once fn starts it runs to
// completion (the simulation is synchronous).
func (sess *Session) Exclusive(ctx context.Context, fn func() error) error {
	select {
	case <-sess.s.token:
	case <-ctx.Done():
		return ctx.Err()
	}
	start := time.Now()
	defer func() {
		sess.s.noteSlotHold(time.Since(start))
		sess.s.token <- struct{}{}
	}()
	return fn()
}

// Release returns the session's grant to the shared budget and admits
// queued requests. Idempotent. A release with outstanding sub-grants in
// the private budget is counted as a leak (the shared budget is still
// made whole — the private manager is only bookkeeping).
func (sess *Session) Release() {
	sess.mu.Lock()
	if sess.released {
		sess.mu.Unlock()
		return
	}
	sess.released = true
	sess.mu.Unlock()

	leaked := sess.priv.Leaked()
	sess.grant.Release()
	s := sess.s
	s.mu.Lock()
	if leaked {
		s.leaks++
	}
	s.running--
	s.pumpLocked()
	s.mu.Unlock()
}
