package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ghostdb/internal/flash"
	"ghostdb/internal/ram"
	"ghostdb/internal/sched"
	"ghostdb/internal/schema"
)

// concurrencyFixture is the stress fixture: the paper's 64KB budget with
// room for the full concurrency limit under test.
func concurrencyFixture(t testing.TB, maxConcurrent int) *fixture {
	t.Helper()
	return newFixtureOpts(t, 42, defaultCards(), Options{
		RAMBudget:            ram.DefaultBudget,
		FlashParams:          flash.Params{PageSize: 2048, PagesPerBlock: 16, Blocks: 8192, ReserveBlocks: 4},
		MaxConcurrentQueries: maxConcurrent,
	})
}

// checkDrained asserts the engine is pristine after a concurrent batch:
// no session running, no grant held anywhere, no private-budget leak,
// and nothing but query text on the uplink audit trail.
func checkDrained(t *testing.T, f *fixture) {
	t.Helper()
	if f.db.Leaked() {
		t.Fatal("shared RAM grants leaked after drain")
	}
	if got := f.db.RAM.InUse(); got != 0 {
		t.Fatalf("shared RAM in use after drain: %d bytes", got)
	}
	if got := f.db.Sched().Leaks(); got != 0 {
		t.Fatalf("%d sessions released with leaked private grants", got)
	}
	if got := f.db.Sched().Running(); got != 0 {
		t.Fatalf("%d sessions still running after drain", got)
	}
	if got := f.db.Sched().QueueLen(); got != 0 {
		t.Fatalf("%d requests still queued after drain", got)
	}
	for _, rec := range f.db.Bus.UplinkRecords() {
		if rec.Kind != "query" {
			t.Fatalf("non-query uplink record after concurrent run: %+v", rec)
		}
	}
}

// TestConcurrentQueriesMatchReference is the acceptance stress test: 16
// goroutines fire the full mixed query set through RunCtx against one
// 64KB-budget DB and every answer must be reference-equal to serial
// execution, with zero leaked grants once the batch drains. It runs the
// sweep twice: once with the default admission (each session targets the
// whole budget, so RAM holds serialize) and once with capped grants so
// up to four 8-buffer sessions genuinely hold RAM at the same time and
// compete over one Manager.
func TestConcurrentQueriesMatchReference(t *testing.T) {
	const goroutines = 16
	f := concurrencyFixture(t, goroutines)

	want := make([][]schema.Row, len(testQueries))
	for i, sql := range testQueries {
		want[i] = f.refAnswer(t, sql)
	}

	for _, mode := range []struct {
		name string
		cfg  QueryConfig
	}{
		{"default-admission", QueryConfig{}},
		{"overlapping-8-buffer-grants", QueryConfig{MinBuffers: 8, WantBuffers: 8}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Rotate the start query per goroutine so different
					// queries are in flight together.
					for k := 0; k < len(testQueries); k++ {
						qi := (g + k) % len(testQueries)
						res, err := f.db.RunCtx(context.Background(), testQueries[qi], mode.cfg)
						if err != nil {
							t.Errorf("g%d q%d: %v", g, qi, err)
							return
						}
						if !rowsEqual(res.Rows, want[qi]) {
							t.Errorf("g%d q%d: %d rows, want %d (answers diverge from serial)",
								g, qi, len(res.Rows), len(want[qi]))
							return
						}
						if res.Stats.RAMHigh > f.db.RAM.Budget() {
							t.Errorf("g%d q%d: session high water %d exceeds budget", g, qi, res.Stats.RAMHigh)
							return
						}
					}
				}()
			}
			wg.Wait()
			checkDrained(t, f)
		})
	}

	// The totals accumulator must have seen every completed query.
	if got := f.db.Totals().Queries; got < uint64(2*goroutines*len(testQueries)) {
		t.Fatalf("totals recorded %d queries, want >= %d", got, 2*goroutines*len(testQueries))
	}
}

// TestConcurrentPerQueryConfigIsolation runs conflicting forced
// strategies and projectors simultaneously: per-query configs must never
// bleed into each other (the bug class this PR removes by making the
// knobs immutable per query).
func TestConcurrentPerQueryConfigIsolation(t *testing.T) {
	f := concurrencyFixture(t, 8)
	sql := testQueries[0]
	want := f.refAnswer(t, sql)

	combos := []QueryConfig{
		{Strategy: StratPre, Projector: ProjectBloom},
		{Strategy: StratCrossPre, Projector: ProjectNoBF},
		{Strategy: StratPostSelect, Projector: ProjectBruteForce},
		{Strategy: StratCrossPostSelect, Projector: ProjectBloom},
		{Strategy: StratNoFilter, Projector: ProjectBruteForce},
		{Strategy: StratAuto, Projector: ProjectBloom},
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		for _, cfg := range combos {
			cfg := cfg
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := f.db.RunCtx(context.Background(), sql, cfg)
				if err != nil {
					if errors.Is(err, ErrBloomInfeasible) {
						return // legitimate for forced Post variants
					}
					t.Errorf("[%v/%v]: %v", cfg.Strategy, cfg.Projector, err)
					return
				}
				if !rowsEqual(res.Rows, want) {
					t.Errorf("[%v/%v]: %d rows, want %d", cfg.Strategy, cfg.Projector, len(res.Rows), len(want))
					return
				}
				// The stats must reflect this query's own config, not a
				// neighbour's.
				if res.Stats.Projector != cfg.Projector {
					t.Errorf("projector bled across sessions: got %v, want %v", res.Stats.Projector, cfg.Projector)
				}
			}()
		}
	}
	wg.Wait()
	checkDrained(t, f)
}

// TestCancelledQueuedQueryReleasesNothing saturates admission, cancels a
// queued query, and asserts the engine keeps working with no budget
// disturbance — the satellite cancellation contract.
func TestCancelledQueuedQueryReleasesNothing(t *testing.T) {
	f := concurrencyFixture(t, 2)

	// Saturate both concurrency slots (and the whole budget) directly.
	bufs := f.db.RAM.Buffers()
	hogA, err := f.db.Sched().Acquire(context.Background(), sched.Request{MinBuffers: bufs / 2, WantBuffers: bufs / 2})
	if err != nil {
		t.Fatal(err)
	}
	hogB, err := f.db.Sched().Acquire(context.Background(), sched.Request{MinBuffers: bufs / 2, WantBuffers: bufs / 2})
	if err != nil {
		t.Fatal(err)
	}
	inUseBefore := f.db.RAM.InUse()

	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := f.db.RunCtx(ctx, testQueries[0], QueryConfig{})
		queued <- err
	}()
	// Wait until the query is actually sitting in the admission queue.
	deadlineWait(t, "query queued", func() bool { return f.db.Sched().QueueLen() == 1 })
	cancel()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued query err = %v, want context.Canceled", err)
	}
	if got := f.db.RAM.InUse(); got != inUseBefore {
		t.Fatalf("cancelled query changed the budget: %d -> %d", inUseBefore, got)
	}
	if f.db.Sched().QueueLen() != 0 {
		t.Fatal("cancelled query still queued")
	}

	// A pre-cancelled context never enters the queue at all.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := f.db.RunCtx(done, testQueries[0], QueryConfig{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v", err)
	}

	hogA.Release()
	hogB.Release()
	res, err := f.db.RunCtx(context.Background(), testQueries[0], QueryConfig{})
	if err != nil {
		t.Fatalf("engine wedged after cancellation: %v", err)
	}
	if !rowsEqual(res.Rows, f.refAnswer(t, testQueries[0])) {
		t.Fatal("wrong answer after cancellation churn")
	}
	checkDrained(t, f)
}

// TestConcurrentInsertsAndQueries interleaves INSERTs with SELECTs that
// do not touch the inserted table: updates serialize behind the token,
// queries keep answering correctly, and the row count lands exactly.
func TestConcurrentInsertsAndQueries(t *testing.T) {
	f := concurrencyFixture(t, 8)
	t2, _ := f.sch.Lookup("T2")
	baseRows := f.db.Rows(t2.Index)

	// Queries over T0/T1/T11/T12 only, so concurrent T2 inserts cannot
	// change their answers.
	queries := []string{
		testQueries[0], // T0/T1/T12
		testQueries[2], // T11
		testQueries[4], // T1/T12
	}
	want := make([][]schema.Row, len(queries))
	for i, sql := range queries {
		want[i] = f.refAnswer(t, sql)
	}

	const inserts = 12
	var wg sync.WaitGroup
	for i := 0; i < inserts; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sql := fmt.Sprintf(`INSERT INTO T2 VALUES ('%010d','%010d','%010d','%010d','%010d','%010d')`,
				i, i, i, i, i, i)
			if _, err := f.db.RunCtx(context.Background(), sql, QueryConfig{}); err != nil {
				t.Errorf("insert %d: %v", i, err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			qi := i % len(queries)
			res, err := f.db.RunCtx(context.Background(), queries[qi], QueryConfig{})
			if err != nil {
				t.Errorf("query %d: %v", qi, err)
				return
			}
			if !rowsEqual(res.Rows, want[qi]) {
				t.Errorf("query %d: answer changed under concurrent inserts", qi)
			}
		}()
	}
	wg.Wait()
	if got := f.db.Rows(t2.Index); got != baseRows+inserts {
		t.Fatalf("T2 rows = %d, want %d", got, baseRows+inserts)
	}
	checkDrained(t, f)
}

// deadlineWait polls cond until it holds (bounded).
func deadlineWait(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
