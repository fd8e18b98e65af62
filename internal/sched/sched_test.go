package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ghostdb/internal/ram"
)

const bufSize = 2048

func newSched(t *testing.T, buffers, maxConcurrent int) (*Scheduler, *ram.Manager) {
	t.Helper()
	m := ram.NewManager(buffers*bufSize, bufSize)
	return New(m, maxConcurrent), m
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdmissionIsElastic(t *testing.T) {
	s, m := newSched(t, 10, 4)
	a, err := s.Acquire(context.Background(), Request{MinBuffers: 2, WantBuffers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if a.Buffers() != 6 {
		t.Fatalf("first grant = %d buffers, want 6", a.Buffers())
	}
	b, err := s.Acquire(context.Background(), Request{MinBuffers: 2, WantBuffers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if b.Buffers() != 4 {
		t.Fatalf("second grant = %d buffers, want the 4 left", b.Buffers())
	}
	// The private budgets mirror the grants exactly.
	if b.RAM().Buffers() != 4 || b.RAM().BufferSize() != bufSize {
		t.Fatalf("private manager = %d x %d", b.RAM().Buffers(), b.RAM().BufferSize())
	}
	a.Release()
	b.Release()
	if m.InUse() != 0 || m.Leaked() {
		t.Fatalf("budget not restored: inuse=%d", m.InUse())
	}
}

func TestImpossibleMinimumFailsFast(t *testing.T) {
	s, _ := newSched(t, 4, 2)
	_, err := s.Acquire(context.Background(), Request{MinBuffers: 5, WantBuffers: 5})
	if !errors.Is(err, ram.ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
}

func TestFIFOAdmissionOrder(t *testing.T) {
	const waiters = 10
	s, m := newSched(t, 32, waiters)
	hog, err := s.Acquire(context.Background(), Request{MinBuffers: 32, WantBuffers: 32})
	if err != nil {
		t.Fatal(err)
	}

	// Enqueue waiters one at a time so their queue order is known.
	seqs := make([]uint64, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := s.Acquire(context.Background(), Request{MinBuffers: 2, WantBuffers: 3})
			if err != nil {
				t.Error(err)
				return
			}
			seqs[i] = sess.Seq()
			sess.Release()
		}()
		waitFor(t, "waiter enqueued", func() bool { return s.QueueLen() == i+1 })
	}

	hog.Release()
	wg.Wait()
	for i := 1; i < waiters; i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("admission order violates FIFO: seqs = %v", seqs)
		}
	}
	if m.InUse() != 0 || s.Leaks() != 0 {
		t.Fatalf("inuse=%d leaks=%d after drain", m.InUse(), s.Leaks())
	}
}

func TestConcurrencyLimitBoundsInFlight(t *testing.T) {
	s, _ := newSched(t, 32, 2)
	a, err := s.Acquire(context.Background(), Request{MinBuffers: 1, WantBuffers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Acquire(context.Background(), Request{MinBuffers: 1, WantBuffers: 1})
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan *Session, 1)
	go func() {
		sess, err := s.Acquire(context.Background(), Request{MinBuffers: 1, WantBuffers: 1})
		if err != nil {
			t.Error(err)
			return
		}
		admitted <- sess
	}()
	waitFor(t, "third request queued", func() bool { return s.QueueLen() == 1 })
	select {
	case <-admitted:
		t.Fatal("third session admitted beyond the concurrency limit")
	case <-time.After(20 * time.Millisecond):
	}
	a.Release()
	sess := <-admitted
	sess.Release()
	b.Release()
	if got := s.Running(); got != 0 {
		t.Fatalf("running = %d after drain", got)
	}
}

func TestCancelledQueuedRequestReleasesNothing(t *testing.T) {
	s, m := newSched(t, 8, 4)
	hog, err := s.Acquire(context.Background(), Request{MinBuffers: 8, WantBuffers: 8})
	if err != nil {
		t.Fatal(err)
	}
	inUseBefore := m.InUse()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Acquire(ctx, Request{MinBuffers: 2, WantBuffers: 2})
		errc <- err
	}()
	waitFor(t, "request queued", func() bool { return s.QueueLen() == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.QueueLen() != 0 {
		t.Fatal("cancelled request still queued")
	}
	if m.InUse() != inUseBefore {
		t.Fatalf("cancelled request changed the budget: %d -> %d", inUseBefore, m.InUse())
	}

	// The vacancy must not wedge the queue: a later request still admits.
	hog.Release()
	sess, err := s.Acquire(context.Background(), Request{MinBuffers: 2, WantBuffers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sess.Release()
	if m.InUse() != 0 || m.Leaked() {
		t.Fatalf("inuse=%d after drain", m.InUse())
	}
}

func TestCancelBehindBlockedHeadUnblocksQueue(t *testing.T) {
	s, m := newSched(t, 8, 4)
	hog, err := s.Acquire(context.Background(), Request{MinBuffers: 6, WantBuffers: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Head needs more than is free; the request behind it would fit but
	// must wait (strict FIFO).
	ctx, cancel := context.WithCancel(context.Background())
	headErr := make(chan error, 1)
	go func() {
		_, err := s.Acquire(ctx, Request{MinBuffers: 4, WantBuffers: 4})
		headErr <- err
	}()
	waitFor(t, "head queued", func() bool { return s.QueueLen() == 1 })
	admitted := make(chan *Session, 1)
	go func() {
		sess, err := s.Acquire(context.Background(), Request{MinBuffers: 1, WantBuffers: 1})
		if err != nil {
			t.Error(err)
			return
		}
		admitted <- sess
	}()
	waitFor(t, "second queued", func() bool { return s.QueueLen() == 2 })
	select {
	case <-admitted:
		t.Fatal("request overtook a blocked head (FIFO violated)")
	case <-time.After(20 * time.Millisecond):
	}
	// Cancelling the blocked head must let the fitting request through.
	cancel()
	if err := <-headErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("head err = %v", err)
	}
	sess := <-admitted
	sess.Release()
	hog.Release()
	if m.InUse() != 0 {
		t.Fatalf("inuse=%d after drain", m.InUse())
	}
}

func TestExclusiveSerializesExecution(t *testing.T) {
	s, _ := newSched(t, 32, 8)
	var inside, overlaps atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := s.Acquire(context.Background(), Request{MinBuffers: 1, WantBuffers: 1})
			if err != nil {
				t.Error(err)
				return
			}
			defer sess.Release()
			for j := 0; j < 50; j++ {
				err := sess.Exclusive(context.Background(), func() error {
					if inside.Add(1) != 1 {
						overlaps.Add(1)
					}
					inside.Add(-1)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d overlapping Exclusive sections", n)
	}
}

func TestExclusiveWaitIsCancellable(t *testing.T) {
	s, _ := newSched(t, 32, 4)
	holder, err := s.Acquire(context.Background(), Request{MinBuffers: 1, WantBuffers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Release()
	other, err := s.Acquire(context.Background(), Request{MinBuffers: 1, WantBuffers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Release()

	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_ = holder.Exclusive(context.Background(), func() error {
			close(started)
			<-release
			return nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := other.Exclusive(ctx, func() error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(release)
}

func TestReleaseCountsPrivateLeaks(t *testing.T) {
	s, m := newSched(t, 8, 2)
	sess, err := s.Acquire(context.Background(), Request{MinBuffers: 4, WantBuffers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RAM().ReserveBuffers(1, 1); err != nil {
		t.Fatal(err)
	}
	sess.Release()
	sess.Release() // idempotent
	if s.Leaks() != 1 {
		t.Fatalf("leaks = %d, want 1", s.Leaks())
	}
	// The shared budget is still made whole.
	if m.InUse() != 0 || m.Leaked() {
		t.Fatalf("shared budget not restored: inuse=%d", m.InUse())
	}
}

// TestSheddingRejectsWhenQueueStalls: with a tiny wait bound, requests
// arriving behind a stalled queue head are rejected with ErrOverloaded
// while holding nothing, and the counter records each rejection.
func TestSheddingRejectsWhenQueueStalls(t *testing.T) {
	s, m := newSched(t, 8, 1)
	s.SetShedPolicy(time.Nanosecond)

	holder, err := s.Acquire(context.Background(), Request{MinBuffers: 1, WantBuffers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Queue a second request behind the holder (it fits the shed check:
	// nothing queued yet, avgSlot still zero, so predicted wait is 0).
	queuedErr := make(chan error, 1)
	go func() {
		sess, err := s.Acquire(context.Background(), Request{MinBuffers: 1, WantBuffers: 1})
		if err == nil {
			sess.Release()
		}
		queuedErr <- err
	}()
	waitFor(t, "second request to queue", func() bool { return s.QueueLen() == 1 })

	// The queue head has nonzero age now, so any further arrival is
	// predicted to wait > 1ns and must be shed at arrival.
	time.Sleep(2 * time.Millisecond)
	if _, err := s.Acquire(context.Background(), Request{MinBuffers: 1, WantBuffers: 1}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if got := s.Sheds(); got != 1 {
		t.Fatalf("sheds = %d, want 1", got)
	}
	// An unsheddable request (background maintenance) queues anyway.
	unshedDone := make(chan error, 1)
	go func() {
		sess, err := s.Acquire(context.Background(), Request{MinBuffers: 1, WantBuffers: 1, Unsheddable: true})
		if err == nil {
			sess.Release()
		}
		unshedDone <- err
	}()
	waitFor(t, "unsheddable request to queue", func() bool { return s.QueueLen() == 2 })

	holder.Release()
	if err := <-queuedErr; err != nil {
		t.Fatalf("queued request: %v", err)
	}
	if err := <-unshedDone; err != nil {
		t.Fatalf("unsheddable request: %v", err)
	}
	if m.InUse() != 0 || m.Leaked() {
		t.Fatalf("budget not restored: inuse=%d", m.InUse())
	}
}

// TestSheddingDisabledByDefault: without SetShedPolicy the same stall
// only queues — nothing is ever rejected.
func TestSheddingDisabledByDefault(t *testing.T) {
	s, _ := newSched(t, 8, 1)
	holder, err := s.Acquire(context.Background(), Request{MinBuffers: 1, WantBuffers: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			sess, err := s.Acquire(context.Background(), Request{MinBuffers: 1, WantBuffers: 1})
			if err == nil {
				sess.Release()
			}
			done <- err
		}()
	}
	waitFor(t, "both requests to queue", func() bool { return s.QueueLen() == 2 })
	holder.Release()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("queued request: %v", err)
		}
	}
	if got := s.Sheds(); got != 0 {
		t.Fatalf("sheds = %d, want 0", got)
	}
}

// TestSheddingUnderConcurrentLoad hammers a shedding scheduler from 16
// goroutines whose sessions hold the execution slot for real time —
// the -race certification of the shed path, and a liveness check that
// admitted + shed always accounts for every request.
func TestSheddingUnderConcurrentLoad(t *testing.T) {
	s, m := newSched(t, 8, 2)
	s.SetShedPolicy(200 * time.Microsecond)

	const goroutines = 16
	const perG = 25
	var admitted, shed atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				sess, err := s.Acquire(context.Background(), Request{MinBuffers: 1, WantBuffers: 2})
				if errors.Is(err, ErrOverloaded) {
					shed.Add(1)
					continue
				}
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				err = sess.Exclusive(context.Background(), func() error {
					time.Sleep(100 * time.Microsecond)
					return nil
				})
				sess.Release()
				if err != nil {
					t.Errorf("exclusive: %v", err)
					return
				}
				admitted.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := admitted.Load() + shed.Load(); got != goroutines*perG {
		t.Fatalf("admitted %d + shed %d = %d, want %d", admitted.Load(), shed.Load(), got, goroutines*perG)
	}
	if shed.Load() != s.Sheds() {
		t.Fatalf("caller saw %d sheds, scheduler counted %d", shed.Load(), s.Sheds())
	}
	// 16 clients pounding a 2-session scheduler with a 200µs wait bound
	// must shed at least sometimes; all-admitted means the policy is off.
	if shed.Load() == 0 {
		t.Fatal("no request was ever shed under 8x overload")
	}
	if m.InUse() != 0 || m.Leaked() {
		t.Fatalf("budget not restored after load: inuse=%d", m.InUse())
	}
}

// TestSessionKeepsItsWaitAndHoldsAreObserved pins the two readings the
// engine takes from the scheduler: a session's QueueWait is the wait the
// admit observer saw, and every Exclusive hold reaches the hold
// observer, covering at least the time fn ran.
func TestSessionKeepsItsWaitAndHoldsAreObserved(t *testing.T) {
	s, _ := newSched(t, 4, 4)
	var mu sync.Mutex
	var waits, holds []time.Duration
	s.SetAdmitObserver(func(wait time.Duration, _ int) {
		mu.Lock()
		waits = append(waits, wait)
		mu.Unlock()
	})
	s.SetHoldObserver(func(hold time.Duration) {
		mu.Lock()
		holds = append(holds, hold)
		mu.Unlock()
	})
	hog, err := s.Acquire(context.Background(), Request{MinBuffers: 4, WantBuffers: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan *Session, 1)
	go func() {
		sess, err := s.Acquire(context.Background(), Request{MinBuffers: 2, WantBuffers: 2})
		if err != nil {
			t.Error(err)
		}
		got <- sess
	}()
	waitFor(t, "request queued", func() bool { return s.QueueLen() == 1 })
	time.Sleep(5 * time.Millisecond)
	if err := hog.Exclusive(context.Background(), func() error {
		time.Sleep(2 * time.Millisecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	hog.Release()
	queued := <-got
	defer queued.Release()

	mu.Lock()
	defer mu.Unlock()
	if len(waits) != 2 || waits[0] != hog.QueueWait() || waits[1] != queued.QueueWait() {
		t.Fatalf("admit observer saw %v; sessions keep %v and %v", waits, hog.QueueWait(), queued.QueueWait())
	}
	if queued.QueueWait() < 5*time.Millisecond {
		t.Fatalf("queued session waited %v, want at least 5ms", queued.QueueWait())
	}
	if len(holds) != 1 || holds[0] < 2*time.Millisecond {
		t.Fatalf("hold observer saw %v, want one hold of at least 2ms", holds)
	}
}
