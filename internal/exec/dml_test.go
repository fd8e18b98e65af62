package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"ghostdb/internal/flash"
	"ghostdb/internal/query"
	"ghostdb/internal/sqlparse"
)

// applyDML runs one UPDATE/DELETE on the engine and mirrors it on the
// reference oracle, failing the test if the affected counts diverge.
func (f *fixture) applyDML(t testing.TB, sql string) int {
	t.Helper()
	res, err := f.db.Run(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		t.Fatalf("%s: DML result shape %v", sql, res.Rows)
	}
	got := int(res.Rows[0][0].I)
	want := f.refDML(t, sql)
	if got != want {
		t.Fatalf("%s: affected %d rows, reference says %d", sql, got, want)
	}
	return got
}

// refDML applies one UPDATE/DELETE to the reference oracle only.
func (f *fixture) refDML(t testing.TB, sql string) int {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	switch st := stmt.(type) {
	case *sqlparse.Update:
		d, err := query.ResolveUpdate(f.sch, st, sql)
		if err != nil {
			t.Fatalf("resolve %q: %v", sql, err)
		}
		return f.ref.Update(d)
	case *sqlparse.Delete:
		d, err := query.ResolveDelete(f.sch, st, sql)
		if err != nil {
			t.Fatalf("resolve %q: %v", sql, err)
		}
		return f.ref.Delete(d)
	}
	t.Fatalf("%q is not a DML statement", sql)
	return 0
}

// checkQuery compares one SELECT against the reference oracle.
func (f *fixture) checkQuery(t testing.TB, sql, when string) {
	t.Helper()
	want := f.refAnswer(t, sql)
	res, err := f.db.Run(sql)
	if err != nil {
		t.Fatalf("%s: %s: %v", when, sql, err)
	}
	if !rowsEqual(res.Rows, want) {
		t.Fatalf("%s: %s: %d rows vs reference %d", when, sql, len(res.Rows), len(want))
	}
}

// randomDML builds a random supported UPDATE or DELETE over the
// synthetic tree. Predicates stay narrow so the fixture is not drained
// of rows halfway through a run.
func randomDML(rng *rand.Rand, cards map[string]int) string {
	tables := []string{"T0", "T1", "T2", "T11", "T12"}
	tb := tables[rng.Intn(len(tables))]
	idPred := func() string {
		lo := rng.Intn(cards[tb])
		return fmt.Sprintf("%s.id >= %d AND %s.id <= %d", tb, lo, tb, lo+rng.Intn(8))
	}
	attrPred := func(col string) string {
		lo := rng.Intn(990)
		return fmt.Sprintf("%s.%s BETWEEN '%010d' AND '%010d'", tb, col, lo, lo+rng.Intn(25))
	}
	val := func() string { return fmt.Sprintf("'%010d'", rng.Intn(testDomain)) }
	switch rng.Intn(6) {
	case 0: // DELETE by id range
		return fmt.Sprintf("DELETE FROM %s WHERE %s", tb, idPred())
	case 1: // DELETE by hidden attribute
		return fmt.Sprintf("DELETE FROM %s WHERE %s", tb, attrPred("h1"))
	case 2: // hidden SET driven by hidden predicate
		return fmt.Sprintf("UPDATE %s SET h2 = %s WHERE %s", tb, val(), attrPred("h3"))
	case 3: // hidden SET driven by id range
		return fmt.Sprintf("UPDATE %s SET h1 = %s, h3 = %s WHERE %s", tb, val(), val(), idPred())
	case 4: // visible SET driven by visible predicate
		return fmt.Sprintf("UPDATE %s SET v1 = %s WHERE %s", tb, val(), attrPred("v2"))
	default: // mixed SET driven by id range (public qualification)
		return fmt.Sprintf("UPDATE %s SET v3 = %s, h1 = %s WHERE %s", tb, val(), val(), idPred())
	}
}

// TestRandomDMLMatchesReference interleaves random UPDATE/DELETE
// statements with random SELECTs, requiring reference-equal answers
// throughout, then compacts every token and requires the same answers
// again from the rebuilt base images.
func TestRandomDMLMatchesReference(t *testing.T) {
	cards := map[string]int{"T0": 900, "T1": 140, "T2": 110, "T11": 40, "T12": 40}
	f := newFixture(t, 97, cards)
	rng := rand.New(rand.NewSource(41))

	var lastChecks []string
	for i := 0; i < 60; i++ {
		f.applyDML(t, randomDML(rng, cards))
		if i%4 != 3 {
			continue
		}
		sql := randomQuery(rng)
		if len(lastChecks) < 8 {
			lastChecks = append(lastChecks, sql)
		}
		f.checkQuery(t, sql, fmt.Sprintf("after %d statements", i+1))
		if f.db.RAM.InUse() != 0 || f.db.Leaked() {
			t.Fatalf("after %d statements: secure RAM leak", i+1)
		}
	}

	tok := f.db.Tokens()[0]
	if tok.DeltaPages() == 0 {
		t.Fatal("60 DML statements left no delta pages")
	}
	if err := f.db.Compact(context.Background()); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if got := tok.DeltaPages(); got != 0 {
		t.Fatalf("delta still %d pages after compaction", got)
	}
	if tok.Compactions() == 0 {
		t.Fatal("compaction counter did not advance")
	}
	for _, sql := range lastChecks {
		f.checkQuery(t, sql, "post-compaction")
	}
	// And writes keep working against the rebuilt catalog.
	for i := 0; i < 10; i++ {
		f.applyDML(t, randomDML(rng, cards))
	}
	f.checkQuery(t, randomQuery(rng), "post-compaction DML")
}

// TestVisibleUpdateWithHiddenPredicateRejected pins the write-path
// security invariant: applying a visible-column UPDATE tells the
// untrusted store which rows matched, so hidden predicates may not
// qualify it.
func TestVisibleUpdateWithHiddenPredicateRejected(t *testing.T) {
	f := newFixture(t, 7, map[string]int{"T0": 50, "T1": 20, "T2": 20, "T11": 10, "T12": 10})
	_, err := f.db.Run("UPDATE T0 SET v1 = '0000000001' WHERE T0.h1 = '0000000002'")
	if err == nil {
		t.Fatal("visible SET qualified by a hidden predicate was accepted")
	}
	if !errors.Is(err, query.ErrUnsupported) {
		t.Fatalf("unexpected error class: %v", err)
	}
	// The same statement with a public (id) qualification is fine.
	if _, err := f.db.Run("UPDATE T0 SET v1 = '0000000001' WHERE T0.id <= 3"); err != nil {
		t.Fatalf("id-qualified visible UPDATE: %v", err)
	}
	// And so is the hidden-set form of the rejected statement.
	if _, err := f.db.Run("UPDATE T0 SET h2 = '0000000001' WHERE T0.h1 = '0000000002'"); err != nil {
		t.Fatalf("hidden-qualified hidden UPDATE: %v", err)
	}
}

// TestZeroMatchDMLWritesOnePadPage pins the leak argument for write
// volumes: a secure-side statement matching nothing still appends one
// full pad page, so the flash write count cannot reveal the match
// count. A visible-only UPDATE never touches the delta log at all.
func TestZeroMatchDMLWritesOnePadPage(t *testing.T) {
	f := newFixture(t, 3, map[string]int{"T0": 80, "T1": 30, "T2": 30, "T11": 10, "T12": 10})
	tok := f.db.Tokens()[0]

	before := tok.DeltaPages()
	res, err := f.db.Run("DELETE FROM T2 WHERE T2.id >= 5000")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].I; n != 0 {
		t.Fatalf("deleted %d rows, want 0", n)
	}
	if got := tok.DeltaPages(); got != before+1 {
		t.Fatalf("zero-match DELETE moved delta from %d to %d pages, want +1", before, got)
	}

	// A one-match hidden UPDATE costs exactly the same one page.
	before = tok.DeltaPages()
	if _, err := f.db.Run("UPDATE T2 SET h1 = '0000000009' WHERE T2.id = 1"); err != nil {
		t.Fatal(err)
	}
	if got := tok.DeltaPages(); got != before+1 {
		t.Fatalf("one-match UPDATE moved delta from %d to %d pages, want +1", before, got)
	}

	// Visible-only DML stays off the token flash entirely.
	before = tok.DeltaPages()
	if _, err := f.db.Run("UPDATE T2 SET v1 = '0000000004' WHERE T2.id <= 2"); err != nil {
		t.Fatal(err)
	}
	if got := tok.DeltaPages(); got != before {
		t.Fatalf("visible-only UPDATE moved delta from %d to %d pages", before, got)
	}
}

// concurrentDMLQueries are the reads raceDML hammers and then settles.
var concurrentDMLQueries = []string{
	"SELECT T0.id, T0.h1 FROM T0 WHERE T0.h2 < '0000000100'",
	"SELECT T1.v1, T1.h3 FROM T1 WHERE T1.id <= 40",
	"SELECT T0.h2, T1.h1 FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.h2 < '0000000150'",
	"SELECT U0.id, U0.h1 FROM U0 WHERE U0.h3 < '0000000120'",
	"SELECT U0.h2, U1.h1 FROM U0, U1 WHERE U0.fku1 = U1.id AND U1.h1 < '0000000200'",
}

// raceDML races one UPDATE/DELETE writer per schema tree of a two-token
// database against readers hammering concurrentDMLQueries, requires
// every statement to be served, lets background compactions settle, and
// checks every read against the reference oracle. The two writers touch
// disjoint trees, so the final state is order-independent and the
// oracle can replay their statements sequentially. Run under -race this
// also exercises the delta/commit/cache/compaction paths for data races.
func raceDML(t *testing.T, opts Options) *fixture {
	t.Helper()
	cards := map[string]int{"T0": 400, "T1": 80, "T2": 60, "T11": 20, "T12": 20, "U0": 300, "U1": 50}
	opts.FlashParams = flash.Params{PageSize: 2048, PagesPerBlock: 16, Blocks: 8192, ReserveBlocks: 4}
	opts.Shards = 2
	f := newForestFixtureOpts(t, 23, cards, opts)

	tWrites := []string{
		"UPDATE T0 SET h1 = '0000000111' WHERE T0.h2 < '0000000050'",
		"DELETE FROM T1 WHERE T1.id >= 70 AND T1.id <= 74",
		"UPDATE T1 SET h2 = '0000000222' WHERE T1.id >= 10 AND T1.id <= 30",
		"DELETE FROM T0 WHERE T0.h3 BETWEEN '0000000000' AND '0000000020'",
		"UPDATE T0 SET h2 = '0000000033' WHERE T0.id >= 100 AND T0.id <= 160",
	}
	uWrites := []string{
		"UPDATE U0 SET h3 = '0000000444' WHERE U0.h1 < '0000000060'",
		"DELETE FROM U1 WHERE U1.id >= 40 AND U1.id <= 44",
		"UPDATE U1 SET h1 = '0000000555' WHERE U1.id >= 5 AND U1.id <= 25",
		"DELETE FROM U0 WHERE U0.h2 BETWEEN '0000000000' AND '0000000015'",
	}

	// A session starved of admission surfaces as a deadline error here
	// instead of hanging the test binary.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errc := make(chan error, 2+len(concurrentDMLQueries))
	for _, writes := range [][]string{tWrites, uWrites} {
		wg.Add(1)
		go func(stmts []string) {
			defer wg.Done()
			for _, sql := range stmts {
				if _, err := f.db.RunCtx(ctx, sql, QueryConfig{}); err != nil {
					errc <- fmt.Errorf("%s: %w", sql, err)
					return
				}
			}
		}(writes)
	}
	for _, sql := range concurrentDMLQueries {
		wg.Add(1)
		go func(sql string) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if _, err := f.db.RunCtx(ctx, sql, QueryConfig{}); err != nil {
					errc <- fmt.Errorf("%s: %w", sql, err)
					return
				}
			}
		}(sql)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := f.db.WaitCompactions(ctx); err != nil {
		t.Fatalf("background compaction never settled: %v", err)
	}

	// Replay the writers on the oracle (disjoint trees commute) and
	// require the settled answers — cached or not — to match it.
	for _, sql := range append(append([]string{}, tWrites...), uWrites...) {
		f.refDML(t, sql)
	}
	for _, sql := range concurrentDMLQueries {
		f.checkQuery(t, sql, "after concurrent writers")
	}
	if f.db.Leaked() {
		t.Fatal("RAM grants leaked")
	}
	return f
}

// TestConcurrentDMLShardCacheInvalidation: with the result cache on, a
// stale per-shard version vector — a cached answer surviving a write to
// its shard — shows up in raceDML as a reference mismatch.
func TestConcurrentDMLShardCacheInvalidation(t *testing.T) {
	f := raceDML(t, Options{ResultCacheBytes: 1 << 20})
	if inv := f.db.CacheStats().Invalidations; inv == 0 {
		t.Fatal("concurrent writers never invalidated a cached result")
	}

	// Compaction on both tokens must not change any settled answer.
	if err := f.db.Compact(context.Background()); err != nil {
		t.Fatalf("compact: %v", err)
	}
	for _, sql := range concurrentDMLQueries {
		f.checkQuery(t, sql, "post-compaction")
	}
}

// TestBackgroundCompactionUnderConcurrentDML: with a two-page threshold
// every writer pushes its token's delta log over the line, so background
// compactions run as ordinary sessions beside the readers and writers.
// No session may starve behind them (raceDML), at least one compaction
// must have completed, and the rebuilt base images must leave every
// settled read oracle-equal.
func TestBackgroundCompactionUnderConcurrentDML(t *testing.T) {
	f := raceDML(t, Options{CompactThreshold: 2})
	var compactions uint64
	for _, d := range f.db.TokenDeltaStats() {
		compactions += d.Compactions
	}
	if compactions == 0 {
		t.Fatal("no background compaction ran although every writer crossed the threshold")
	}
}

// TestExplainDML renders a DML plan without executing it.
func TestExplainDML(t *testing.T) {
	f := newFixture(t, 9, map[string]int{"T0": 50, "T1": 20, "T2": 20, "T11": 10, "T12": 10})
	stmt, err := f.db.Prepare("DELETE FROM T1 WHERE T1.h1 = '0000000004'", QueryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out := stmt.Plan().Explain()
	if !strings.Contains(out, "delete from") {
		t.Fatalf("DML explain missing canonical text:\n%s", out)
	}
	if f.db.Totals().Queries != 0 {
		t.Fatal("EXPLAIN executed the statement")
	}
}
