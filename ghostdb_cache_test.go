package ghostdb

import (
	"fmt"
	"sync"
	"testing"
)

// cacheTestDB builds the Orders/Customers database with the result
// cache enabled (cacheBytes) or disabled (0).
func cacheTestDB(t *testing.T, nCustomers, nOrders, cacheBytes int) *DB {
	t.Helper()
	return ordersDB(t, nCustomers, nOrders, Options{FlashBlocks: 4096, MaxConcurrentQueries: 8, ResultCacheBytes: cacheBytes})
}

// ordersDB builds the Orders/Customers database with opts.
func ordersDB(t *testing.T, nCustomers, nOrders int, opts Options) *DB {
	t.Helper()
	db, err := Create([]string{
		`CREATE TABLE Orders (id int, customer_id int REFERENCES Customers HIDDEN,
		   quarter char(7), amount float HIDDEN)`,
		`CREATE TABLE Customers (id int, company char(30) HIDDEN, region char(20))`,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	ld := db.Loader()
	regions := []string{"north", "south", "east", "west"}
	for i := 0; i < nCustomers; i++ {
		if err := ld.Append("Customers", R{"company": fmt.Sprintf("corp-%02d", i), "region": regions[i%4]}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nOrders; i++ {
		if err := ld.Append("Orders", R{"customer_id": i % nCustomers, "quarter": fmt.Sprintf("2006-Q%d", i%4+1), "amount": float64(i % 250)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ld.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

func sameRows(a, b *Result) bool {
	if len(a.Rows) != len(b.Rows) || len(a.Columns) != len(b.Columns) {
		return false
	}
	for ri := range a.Rows {
		for ci := range a.Rows[ri] {
			if !a.Rows[ri][ci].Equal(b.Rows[ri][ci]) {
				return false
			}
		}
	}
	return true
}

var cachePoolQueries = []string{
	`SELECT Orders.id, Customers.company FROM Orders, Customers
	   WHERE Orders.customer_id = Customers.id AND Customers.region = 'north' AND Orders.amount >= 200.0`,
	`SELECT Orders.id, Orders.amount FROM Orders, Customers
	   WHERE Orders.customer_id = Customers.id AND Customers.company < 'corp-10' AND Orders.quarter = '2006-Q1'`,
	`SELECT id, region FROM Customers WHERE region = 'south'`,
	`SELECT COUNT(*) FROM Orders, Customers WHERE Orders.customer_id = Customers.id AND Orders.amount < 50.0 AND Customers.region = 'east'`,
}

// TestCachePublicSequentialInvalidation: the INSERT-then-query contract
// through the public API — a post-insert query never sees a cached
// pre-insert answer.
func TestCachePublicSequentialInvalidation(t *testing.T) {
	db := cacheTestDB(t, 30, 300, 1<<20)
	sql := `SELECT id, region FROM Customers WHERE region = 'north'`
	first, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.CacheHit || !sameRows(first, warm) {
		t.Fatalf("warm query: hit=%v rows-match=%v", warm.Stats.CacheHit, sameRows(first, warm))
	}
	if err := db.Exec(`INSERT INTO Customers (company, region) VALUES ('corp-xx', 'north')`); err != nil {
		t.Fatal(err)
	}
	after, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if after.Stats.CacheHit || after.Stats.CacheShared {
		t.Fatal("post-insert query was served from the stale cache")
	}
	if len(after.Rows) != len(first.Rows)+1 {
		t.Fatalf("post-insert rows = %d, want %d", len(after.Rows), len(first.Rows)+1)
	}
}

// TestCacheConcurrentInsertsMatchUncachedEngine is the invalidation
// property test: rounds of concurrent INSERTs and repeated queries hit
// one cached DB, while an identical *uncached* DB receives the same
// inserts in the same per-table order. After every round the two
// engines must agree exactly on every pool query — if invalidation ever
// let a stale entry survive, the cached DB's answer would diverge. Run
// under -race in CI, this is also the data-race check for the whole
// cache/invalidate/singleflight path.
func TestCacheConcurrentInsertsMatchUncachedEngine(t *testing.T) {
	const (
		nCustomers      = 30
		nOrders         = 300
		rounds          = 4
		queryWorkers    = 6
		insertsPerRound = 5
	)
	cached := cacheTestDB(t, nCustomers, nOrders, 1<<20)
	uncached := cacheTestDB(t, nCustomers, nOrders, 0)

	regions := []string{"north", "south", "east", "west"}
	customerIns := func(round, i int) string {
		return fmt.Sprintf(`INSERT INTO Customers (company, region) VALUES ('corp-r%d-%d', '%s')`,
			round, i, regions[(round+i)%4])
	}
	orderIns := func(round, i int) string {
		// Reference only the initially loaded customers so the insert is
		// valid regardless of interleaving with the Customers inserter.
		return fmt.Sprintf(`INSERT INTO Orders (customer_id, quarter, amount) VALUES (%d, '2006-Q%d', %d.0)`,
			(round*7+i)%nCustomers, (round+i)%4+1, 190+((round*13+i*29)%60))
	}

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		// One inserter per table keeps each table's insertion order
		// deterministic, so the mirror can replay it exactly.
		for _, mk := range []func(int, int) string{customerIns, orderIns} {
			mk := mk
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < insertsPerRound; i++ {
					if err := cached.Exec(mk(round, i)); err != nil {
						t.Errorf("round %d insert: %v", round, err)
						return
					}
				}
			}()
		}
		// Query workers hammer the pool concurrently with the inserts.
		for w := 0; w < queryWorkers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 8; k++ {
					sql := cachePoolQueries[(w+k)%len(cachePoolQueries)]
					res, err := cached.Query(sql)
					if err != nil {
						t.Errorf("round %d worker %d: %v", round, w, err)
						return
					}
					if s := res.Stats; (s.CacheHit || s.CacheShared) &&
						(s.BusUp != 0 || s.BusDown != 0 || s.Flash.PageReads != 0 || s.Flash.PageWrites != 0) {
						t.Errorf("round %d worker %d: cached answer with token traffic: %+v", round, w, s)
						return
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}

		// Replay the round's inserts on the uncached mirror, same
		// per-table order.
		for i := 0; i < insertsPerRound; i++ {
			if err := uncached.Exec(customerIns(round, i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < insertsPerRound; i++ {
			if err := uncached.Exec(orderIns(round, i)); err != nil {
				t.Fatal(err)
			}
		}

		// Quiesced: every pool query must agree exactly between the
		// cached engine and the uncached one — twice on the cached side,
		// so both the recomputed answer and its re-cached copy are
		// checked against the reference.
		for qi, sql := range cachePoolQueries {
			want, err := uncached.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := cached.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(want, fresh) {
				t.Fatalf("round %d q%d: cached engine diverged from uncached engine (%d vs %d rows)",
					round, qi, len(fresh.Rows), len(want.Rows))
			}
			again, err := cached.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			if !again.Stats.CacheHit && !again.Stats.CacheShared {
				t.Fatalf("round %d q%d: quiesced repeat did not hit", round, qi)
			}
			if !sameRows(want, again) {
				t.Fatalf("round %d q%d: cached copy diverged from uncached engine", round, qi)
			}
		}
	}

	cs := cached.CacheStats()
	if cs.Hits+cs.SharedHits == 0 {
		t.Fatal("property test never exercised a cache hit")
	}
	if cs.Invalidations == 0 {
		t.Fatal("property test never exercised invalidation")
	}
	if got := cached.Internal().RAM.InUse(); got != 0 {
		t.Fatalf("secure RAM still in use after drain: %d", got)
	}
}
