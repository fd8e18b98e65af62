package ghostdb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// concurrencyDB builds a two-level schema with enough rows that queries
// genuinely exercise the secure pipeline under the 64KB default budget.
func concurrencyDB(t *testing.T, maxConcurrent int) *DB {
	t.Helper()
	db, err := Create([]string{
		`CREATE TABLE Orders (id int, customer_id int REFERENCES Customers HIDDEN,
		   quarter char(7), amount float HIDDEN)`,
		`CREATE TABLE Customers (id int, company char(30) HIDDEN, region char(20))`,
	}, Options{FlashBlocks: 4096, MaxConcurrentQueries: maxConcurrent})
	if err != nil {
		t.Fatal(err)
	}
	ld := db.Loader()
	regions := []string{"north", "south", "east", "west"}
	for i := 0; i < 40; i++ {
		if err := ld.Append("Customers", R{"company": fmt.Sprintf("corp-%02d", i), "region": regions[i%4]}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 600; i++ {
		if err := ld.Append("Orders", R{"customer_id": i % 40, "quarter": fmt.Sprintf("2006-Q%d", i%4+1), "amount": float64(i % 250)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ld.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestQueryCtxConcurrentSessions drives 16 goroutines of mixed queries
// through the public API: every answer must equal its serial baseline.
func TestQueryCtxConcurrentSessions(t *testing.T) {
	const goroutines = 16
	db := concurrencyDB(t, goroutines)

	queries := []string{
		`SELECT Orders.id, Customers.company FROM Orders, Customers
		   WHERE Orders.customer_id = Customers.id AND Customers.region = 'north' AND Orders.amount >= 200.0`,
		`SELECT Orders.id, Orders.amount FROM Orders, Customers
		   WHERE Orders.customer_id = Customers.id AND Customers.company < 'corp-10' AND Orders.quarter = '2006-Q1'`,
		`SELECT id, region FROM Customers WHERE region = 'south'`,
		`SELECT COUNT(*) FROM Orders, Customers WHERE Orders.customer_id = Customers.id AND Orders.amount < 50.0 AND Customers.region = 'east'`,
	}
	want := make([]*Result, len(queries))
	for i, sql := range queries {
		res, err := db.Query(sql)
		if err != nil {
			t.Fatalf("serial baseline %d: %v", i, err)
		}
		want[i] = res
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 2*len(queries); k++ {
				qi := (g + k) % len(queries)
				// Half the goroutines cap their session's RAM so grants
				// from several sessions overlap on the one Manager.
				var opts []QueryOption
				if g%2 == 0 {
					opts = append(opts, WithRAMBuffers(8, 8))
				}
				res, err := db.QueryCtx(context.Background(), queries[qi], opts...)
				if err != nil {
					t.Errorf("g%d q%d: %v", g, qi, err)
					return
				}
				if len(res.Rows) != len(want[qi].Rows) {
					t.Errorf("g%d q%d: %d rows, want %d", g, qi, len(res.Rows), len(want[qi].Rows))
					return
				}
				for ri := range res.Rows {
					for ci := range res.Rows[ri] {
						if !res.Rows[ri][ci].Equal(want[qi].Rows[ri][ci]) {
							t.Errorf("g%d q%d row %d: diverges from serial answer", g, qi, ri)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	if got := db.Internal().RAM.InUse(); got != 0 {
		t.Fatalf("RAM still in use after drain: %d", got)
	}
	if db.Internal().RAM.Leaked() {
		t.Fatal("grants leaked after concurrent drain")
	}
	if got := db.Internal().Sched().Leaks(); got != 0 {
		t.Fatalf("%d private-budget leaks", got)
	}
	if tot := db.Totals(); tot.Queries == 0 || tot.SimTime <= 0 {
		t.Fatalf("totals not accumulated: %+v", tot)
	}
}

// TestQueryCtxPerQueryOptions checks per-query knobs do not outlive
// their query, and that the newly exported Cross-Post-Select strategy is
// usable from the public API.
func TestQueryCtxPerQueryOptions(t *testing.T) {
	db := patientsDB(t)
	sql := `SELECT name FROM Patients WHERE age = 50 AND bodymassindex = 23.0`
	base, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range [][]QueryOption{
		{WithStrategy(StrategyPreFilter)},
		{WithStrategy(StrategyCrossPostSelect)},
		{WithProjector(ProjectorBruteForce)},
		{WithStrategy(StrategyPostSelect), WithProjector(ProjectorNoBF), WithRAMBuffers(8, 8)},
	} {
		res, err := db.QueryCtx(context.Background(), sql, opt...)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(base.Rows) {
			t.Fatalf("per-query option changed the answer: %d vs %d rows", len(res.Rows), len(base.Rows))
		}
	}
	// A later plain query is unaffected by the options above.
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Projector != ProjectorBloom {
		t.Fatalf("per-query options leaked into a later query: projector %v", res.Stats.Projector)
	}
}

// TestQueryCtxCancellation covers the public cancellation contract.
func TestQueryCtxCancellation(t *testing.T) {
	db := patientsDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryCtx(ctx, `SELECT id FROM Patients WHERE age = 50`); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The engine is untouched: a live query still answers.
	res, err := db.Query(`SELECT id FROM Patients WHERE age = 50`)
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("after cancellation: %v rows=%v", err, res)
	}
}
