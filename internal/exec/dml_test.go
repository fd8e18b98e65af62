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
	"ghostdb/internal/metrics"
	"ghostdb/internal/query"
	"ghostdb/internal/sqlparse"
	"ghostdb/internal/store"
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

// overlayReads counts, over the tables of sql's plan that hold live
// upserts and whose hidden columns sql reads, those whose upsert log the
// plan replays and those it skips (none of the columns read was SET
// since the last compaction).
func (f *fixture) overlayReads(t testing.TB, sql string) (reads, skips int) {
	t.Helper()
	stmt, err := f.db.Prepare(sql, QueryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, dr := range stmt.Plan().delta {
		dl := f.db.TokenOf(dr.table).deltaOf(dr.table)
		switch {
		case len(dr.reads) == 0 || dl == nil || dl.DirtyCount() == 0:
		case dr.images:
			reads++
		default:
			skips++
		}
	}
	return reads, skips
}

// TestRandomDMLMatchesReference interleaves random UPDATE/DELETE
// statements with random SELECTs, requiring reference-equal answers
// throughout, then compacts every token and requires the same answers
// again from the rebuilt base images. A compaction halfway makes the
// engine forget the columns SET so far, and the SELECTs must both
// replay a live upsert log (they read a column SET since) and skip one
// (they read none). It runs at the 7-buffer floor of the mix, where the
// Merge feeding a DML's write stage reduces its sublists, and at the
// paper's 32 buffers.
func TestRandomDMLMatchesReference(t *testing.T) {
	for _, buffers := range []int{minViableBuffers, 32} {
		t.Run(fmt.Sprintf("%d-buffers", buffers), func(t *testing.T) { randomDMLMatchesReference(t, buffers) })
	}
}

func randomDMLMatchesReference(t *testing.T, buffers int) {
	cards := map[string]int{"T0": 900, "T1": 140, "T2": 110, "T11": 40, "T12": 40}
	f := newFixtureOpts(t, 97, cards, Options{
		RAMBudget:   buffers * 2048,
		FlashParams: flash.Params{PageSize: 2048, PagesPerBlock: 16, Blocks: 8192, ReserveBlocks: 4},
	})
	rng := rand.New(rand.NewSource(41))

	var lastChecks []string
	var logReads, logSkips int
	for i := 0; i < 60; i++ {
		f.applyDML(t, randomDML(rng, cards))
		if i == 29 {
			// A compaction forgets the columns SET so far, so the second
			// half meets SELECTs that skip a live upsert log again.
			if err := f.db.Compact(context.Background()); err != nil {
				t.Fatalf("compact: %v", err)
			}
		}
		if i%2 != 1 {
			continue
		}
		sql := randomQuery(rng)
		if len(lastChecks) < 8 {
			lastChecks = append(lastChecks, sql)
		}
		reads, skips := f.overlayReads(t, sql)
		logReads, logSkips = logReads+reads, logSkips+skips
		f.checkQuery(t, sql, fmt.Sprintf("after %d statements", i+1))
		if f.db.RAM.InUse() != 0 || f.db.Leaked() {
			t.Fatalf("after %d statements: secure RAM leak", i+1)
		}
	}

	if logReads == 0 || logSkips == 0 {
		t.Fatalf("the SELECTs replayed a live upsert log %d times and skipped one %d times; want both", logReads, logSkips)
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

// TestDeltaReadIgnoresWriteMatches is the hidden-twin check on the
// overlay read: two databases loaded alike each run a hidden UPDATE and
// a DELETE of the same shapes, which match rows on one twin and none on
// the other (their ranges lie past the value domain), then the same
// SELECTs — a visible-only one and a join that read T1's liveness, one
// projecting the hidden column the UPDATE set, which reads its images,
// and one projecting a hidden column no UPDATE set, which reads
// liveness only. What each SELECT's Delta stage reads is the choice of
// its text and of the SET texts before it: its flash sample is
// identical across the twins, and the images read is the liveness read
// plus the upsert log.
func TestDeltaReadIgnoresWriteMatches(t *testing.T) {
	selects := []string{
		"SELECT T1.id, T1.v1 FROM T1 WHERE T1.v2 < '0000000500'",
		"SELECT T0.id, T1.v1 FROM T0, T1 WHERE T0.fk1 = T1.id AND T0.h1 < '0000000300'",
		"SELECT T1.id, T1.h1 FROM T1 WHERE T1.v2 < '0000000500'",
		"SELECT T1.id, T1.h2 FROM T1 WHERE T1.v2 < '0000000500'",
	}
	twin := func(lo, hi int) (*fixture, [][]metrics.Op) {
		f := newFixture(t, 97, writesCards())
		f.applyDML(t, fmt.Sprintf("UPDATE T1 SET h1 = '0000000001' WHERE T1.h3 BETWEEN '%010d' AND '%010d'", lo, hi))
		f.applyDML(t, fmt.Sprintf("DELETE FROM T1 WHERE T1.h2 BETWEEN '%010d' AND '%010d'", lo+300, hi+200))
		var ops [][]metrics.Op
		for _, sql := range selects {
			res, err := f.db.Run(sql)
			if err != nil {
				t.Fatal(err)
			}
			if want := f.refAnswer(t, sql); !rowsEqual(res.Rows, want) {
				t.Fatalf("%s: %d rows, reference %d", sql, len(res.Rows), len(want))
			}
			ops = append(ops, res.Stats.Ops)
		}
		return f, ops
	}
	fa, a := twin(200, 400)
	fb, b := twin(2200, 2400)
	t1, _ := fa.sch.Lookup("T1")
	overlay := func(f *fixture) (int, int) {
		dl := f.db.TokenOf(t1.Index).deltaOf(t1.Index)
		return dl.DirtyCount(), dl.TombCount()
	}
	if d, k := overlay(fa); d == 0 || k == 0 {
		t.Fatalf("matching twin holds %d upserts and %d tombstones; want some of each", d, k)
	}
	if d, k := overlay(fb); d != 0 || k != 0 {
		t.Fatalf("other twin holds %d upserts and %d tombstones; want none", d, k)
	}
	deltaOf := func(ops []metrics.Op) metrics.Sample {
		for _, o := range ops {
			if o.Name == spanDelta {
				return o.Sample
			}
		}
		t.Fatalf("no %s stage in %v", spanDelta, ops)
		return metrics.Sample{}
	}
	for i, sql := range selects {
		if da, db := deltaOf(a[i]), deltaOf(b[i]); da != db {
			t.Fatalf("%s: Delta reads differ across the twins: %+v / %+v", sql, da.Flash, db.Flash)
		}
	}
	live, images := deltaOf(a[0]).Flash, deltaOf(a[2]).Flash
	if deltaOf(a[1]).Flash != live || deltaOf(a[3]).Flash != live ||
		images.PageReads != live.PageReads+1 || images.BytesToRAM <= live.BytesToRAM {
		t.Fatalf("liveness reads %+v, %+v and %+v, images read %+v; want equal liveness and one upsert page more",
			live, deltaOf(a[1]).Flash, deltaOf(a[3]).Flash, images)
	}
}

// TestDeltaReadsOnlySetColumns pins which statements replay T1's upsert
// log, at the mix's 7-buffer floor and at 32 buffers: after a DELETE
// (so the liveness read has pages) and UPDATE T1 SET h1, a SELECT that
// filters or projects only h2 reads exactly the liveness pages and
// bytes, one that projects h1 the whole log; after a compaction and a
// SET h3, neither the h1 nor the h2 reader replays the log (the
// compaction forgot h1); and a zero-match SET h2 makes the next h2
// reader replay it, since the choice follows the SET texts, not their
// matches. Each answer equals the reference's, and each plan's EXPLAIN
// names the read its run made.
func TestDeltaReadsOnlySetColumns(t *testing.T) {
	for _, buffers := range []int{minViableBuffers, 32} {
		t.Run(fmt.Sprintf("%d-buffers", buffers), func(t *testing.T) { deltaReadsOnlySetColumns(t, buffers) })
	}
}

func deltaReadsOnlySetColumns(t *testing.T, buffers int) {
	f := newFixtureOpts(t, 97, writesCards(), Options{
		RAMBudget:        buffers * 2048,
		FlashParams:      flash.Params{PageSize: 2048, PagesPerBlock: 16, Blocks: 8192, ReserveBlocks: 4},
		CompactThreshold: -1,
	})
	t1, _ := f.sch.Lookup("T1")
	tok := f.db.TokenOf(t1.Index)
	const (
		filterH2  = "SELECT T1.id, T1.v1 FROM T1 WHERE T1.h2 < '0000000300'"
		projectH2 = "SELECT T1.id, T1.h2 FROM T1 WHERE T1.v2 < '0000000500'"
		projectH1 = "SELECT T1.id, T1.h1 FROM T1 WHERE T1.v2 < '0000000500'"
	)
	// expect runs sql and requires its Delta stage to read the liveness
	// files alone, or the upsert log too when images is set.
	expect := func(sql string, images bool, when string) {
		t.Helper()
		stmt, err := f.db.Prepare(sql, QueryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		line := map[bool]string{false: "delta: T1 liveness\n", true: "delta: T1 images\n"}[images]
		if out := stmt.Plan().Explain(); !strings.Contains(out, line) {
			t.Fatalf("%s: %s: EXPLAIN misses %q:\n%s", when, sql, line, out)
		}
		dl := tok.deltaOf(t1.Index)
		pages, bytes := dl.ReadSize(images)
		if live, _ := dl.ReadSize(false); live == 0 {
			t.Fatalf("%s: the liveness read is empty; nothing to tell from no Delta stage", when)
		} else if all, _ := dl.ReadSize(true); all <= live {
			t.Fatalf("%s: the upsert log is empty; nothing to tell apart", when)
		}
		res, err := f.db.Run(sql)
		if err != nil {
			t.Fatal(err)
		}
		if want := f.refAnswer(t, sql); !rowsEqual(res.Rows, want) {
			t.Fatalf("%s: %s: %d rows, reference %d", when, sql, len(res.Rows), len(want))
		}
		var got flash.Counters
		for _, o := range res.Stats.Ops {
			if o.Name == spanDelta {
				got = o.Sample.Flash
			}
		}
		if got.PageReads != uint64(pages) || got.BytesToRAM != uint64(bytes) {
			t.Fatalf("%s: %s: Delta stage read %d pages, %d B; want %d pages, %d B",
				when, sql, got.PageReads, got.BytesToRAM, pages, bytes)
		}
	}
	f.applyDML(t, "DELETE FROM T1 WHERE T1.id >= 50 AND T1.id <= 59")
	if f.applyDML(t, "UPDATE T1 SET h1 = '0000000001' WHERE T1.id <= 40") == 0 {
		t.Fatal("the SET h1 matched nothing")
	}
	expect(filterH2, false, "after SET h1")
	expect(projectH2, false, "after SET h1")
	expect(projectH1, true, "after SET h1")

	if err := f.db.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.applyDML(t, "UPDATE T1 SET h3 = '0000000003' WHERE T1.id >= 20 AND T1.id <= 30")
	expect(projectH1, false, "after COMPACT and SET h3")
	expect(projectH2, false, "after COMPACT and SET h3")

	if n := f.applyDML(t, "UPDATE T1 SET h2 = '0000000002' WHERE T1.h1 > '0000005000'"); n != 0 {
		t.Fatalf("the zero-match SET h2 matched %d rows", n)
	}
	expect(projectH2, true, "after a zero-match SET h2")
	expect(filterH2, true, "after a zero-match SET h2")
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

// TestExplainDML renders a DML plan without executing it: the plan of
// its WHERE clause, with the hidden predicate's route and the footprint
// and admission lines a SELECT's EXPLAIN prints. Every DML plan of the
// writes corpus asks for exactly its floor, which fits the mix's
// 7-buffer minimum.
func TestExplainDML(t *testing.T) {
	f := newFixture(t, 9, map[string]int{"T0": 50, "T1": 20, "T2": 20, "T11": 10, "T12": 10})
	stmt, err := f.db.Prepare("DELETE FROM T1 WHERE T1.h1 = '0000000004'", QueryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out := stmt.Plan().Explain()
	for _, want := range []string{"delete from", "anchor: T1", "via CI", "delta: T1 liveness",
		"footprint (buffers): QEPSJ 3 (merge 3, then write stage 1 + a stream per merge group)",
		"admission: min 3 of 32 buffers (2048 B each), want 3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DML explain missing %q:\n%s", want, out)
		}
	}
	if f.db.Totals().Queries != 0 {
		t.Fatal("EXPLAIN executed the statement")
	}
	// The write stage is priced: a DELETE or hidden SET commits at least
	// one log page, and a hidden SET by id also reads the image page its
	// four expected rows lie on (T1's 20 rows fill one); an id filter
	// reads no flash, and a visible-only UPDATE is the untrusted store's
	// and costs the token nothing.
	explains := func(cases map[string]string) {
		t.Helper()
		for sql, want := range cases {
			stmt, err := f.db.Prepare(sql, QueryConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if out := stmt.Plan().Explain(); !strings.Contains(out, want) {
				t.Fatalf("%s: EXPLAIN misses %q:\n%s", sql, want, out)
			}
		}
	}
	explains(map[string]string{
		"DELETE FROM T1 WHERE T1.h1 = '0000000004'":                  "(≈2 page reads, 1 writes)",
		"DELETE FROM T1 WHERE T1.id <= 3":                            "(≈0 page reads, 1 writes)",
		"UPDATE T1 SET h2 = '0000000001' WHERE T1.id <= 3":           "(≈1 page reads, 1 writes)",
		"UPDATE T1 SET v2 = '0000000001' WHERE T1.v1 < '0000000003'": "(≈0 page reads, 0 writes)",
	})
	// The overlay read follows the statement text and the SET texts since
	// the last compaction: before any hidden SET every read is liveness;
	// after SET h3, images for a statement reading h3 and for a hidden SET
	// that would carry h3 over, liveness for the rest.
	explains(map[string]string{
		"DELETE FROM T1 WHERE T1.id <= 3":                            "delta: T1 liveness\n",
		"UPDATE T1 SET h2 = '0000000001' WHERE T1.id <= 3":           "delta: T1 liveness\n",
		"UPDATE T1 SET v2 = '0000000001' WHERE T1.v1 < '0000000003'": "delta: T1 liveness\n",
	})
	if _, err := f.db.Run("UPDATE T1 SET h3 = '0000000002' WHERE T1.id = 0"); err != nil {
		t.Fatal(err)
	}
	explains(map[string]string{
		"DELETE FROM T1 WHERE T1.id <= 3":                                     "delta: T1 liveness\n",
		"DELETE FROM T1 WHERE T1.h3 = '0000000004'":                           "delta: T1 images\n",
		"DELETE FROM T1 WHERE T1.h1 = '0000000004'":                           "delta: T1 liveness\n",
		"UPDATE T1 SET h2 = '0000000001' WHERE T1.id <= 3":                    "delta: T1 images\n",
		"UPDATE T1 SET h3 = '0000000001', h2 = '0000000001' WHERE T1.id <= 3": "delta: T1 liveness\n",
		"SELECT T1.id, T1.h3 FROM T1":                                         "delta: T1 images\n",
		"SELECT T1.h2 FROM T1 WHERE T1.h1 < '0000000500'":                     "delta: T1 liveness\n",
	})
	// A hidden SET by an id range gathers the rows of one contiguous run:
	// on T0 of the writes corpus (68 rows to an image page) its estimate
	// is the run's 4 pages plus at most one, not the 14 pages that as
	// many ids spread over the image would touch, and the write stage
	// reads the run's pages.
	w := newFixture(t, 97, writesCards())
	sql := "UPDATE T0 SET h2 = '0000000001' WHERE T0.id >= 100 AND T0.id <= 299"
	stmt, err = w.db.Prepare(sql, QueryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.db.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	var dml flash.Counters
	for _, o := range res.Stats.Ops {
		if o.Name == spanDML {
			dml = o.Sample.Flash
		}
	}
	if est := stmt.Plan().EstPageReads; est < int(dml.PageReads) || est > int(dml.PageReads)+1 {
		t.Fatalf("%s: estimated %d page reads, the write stage read %d", sql, est, dml.PageReads)
	}
	for _, st := range goldenWrites() {
		if !strings.HasPrefix(st.sql, "UPDATE") && !strings.HasPrefix(st.sql, "DELETE") {
			continue
		}
		stmt, err := f.db.Prepare(st.sql, QueryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if p := stmt.Plan(); p.MinBuffers > minViableBuffers || p.WantBuffers != p.MinBuffers {
			t.Errorf("%s: admission min %d, want %d", st.sql, p.MinBuffers, p.WantBuffers)
		}
	}
}

// TestDMLFindsRowsAsItsSelect: an UPDATE's WHERE runs the stages of the
// SELECT of its WHERE, by the route its plan priced, and the route does
// not depend on the table's write history. While an upsert leaves T0's
// indexes stale the hidden predicate takes the Scan stage whatever its
// route; right after a compaction the UPDATE plans the same route and
// runs it. Where that route is CI, as for this predicate on T0, it reads
// the same CI pages as the SELECT, and the whole UPDATE reads fewer
// pages than the hidden image it used to scan.
func TestDMLFindsRowsAsItsSelect(t *testing.T) {
	f := newFixture(t, 97, writesCards())
	t0, _ := f.sch.Lookup("T0")
	where := "T0.h2 < '0000000003'"
	run := func(sql string) *Result {
		t.Helper()
		res, err := f.db.Run(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	op := func(res *Result, name string) (metrics.Sample, bool) {
		for _, o := range res.Stats.Ops {
			if o.Name == name {
				return o.Sample, true
			}
		}
		return metrics.Sample{}, false
	}

	f.applyDML(t, "UPDATE T0 SET h3 = '0000000001' WHERE T0.id <= 3")
	sql := "UPDATE T0 SET h1 = '0000000007' WHERE " + where
	route := routeOf(t, f.db, sql)
	if route != RouteCI {
		t.Fatalf("%s: planned route %s on T0, want CI", sql, route)
	}
	stale := run(sql)
	if got, want := stale.Rows[0][0].I, f.refDML(t, sql); int(got) != want {
		t.Fatalf("UPDATE on the dirty table affected %d rows, reference %d", got, want)
	}
	if _, ci := op(stale, spanCI); ci {
		t.Fatal("an UPDATE on a table with live upserts took the stale index")
	}
	if _, scan := op(stale, spanScan); !scan {
		t.Fatal("an UPDATE on a table with live upserts did not scan")
	}

	if err := f.db.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	sel := run("SELECT T0.id FROM T0 WHERE " + where)
	if n := len(sel.Rows); n == 0 || n*50 > f.db.Rows(t0.Index) {
		t.Fatalf("the SELECT matches %d of %d rows, want 1 to 2%%", n, f.db.Rows(t0.Index))
	}
	f.checkQuery(t, "SELECT T0.id FROM T0 WHERE "+where, "after compaction")
	sql = "UPDATE T0 SET h1 = '0000000008' WHERE " + where
	if r := routeOf(t, f.db, sql); r != route {
		t.Fatalf("%s: planned route %s on the clean table, %s on the dirty one", sql, r, route)
	}
	upd := run(sql)
	if got, want := upd.Rows[0][0].I, f.refDML(t, sql); int(got) != want || int(got) != len(sel.Rows) {
		t.Fatalf("UPDATE affected %d rows, reference %d, its SELECT %d", got, want, len(sel.Rows))
	}
	if _, scan := op(upd, spanScan); scan {
		t.Fatal("an UPDATE routed through the index of a clean table scanned")
	}
	selCI, ok := op(sel, spanCI)
	if !ok {
		t.Fatal("the SELECT has no CI operator")
	}
	if updCI, ok := op(upd, spanCI); !ok || updCI != selCI {
		t.Fatalf("UPDATE's CI sample %+v (present %v), its SELECT's %+v", updCI, ok, selCI)
	}
	reads, image := upd.Stats.Flash.PageReads, f.db.Hidden[t0.Index].File.Pages()
	t.Logf("UPDATE of %d rows read %d pages (CI %d); the hidden image holds %d", len(sel.Rows), reads, selCI.Flash.PageReads, image)
	if reads >= uint64(image) {
		t.Fatalf("UPDATE read %d pages, the hidden image holds %d", reads, image)
	}

	// On a table pricing sends to Scan, the UPDATE scans dirty and clean.
	sql = "UPDATE T1 SET h1 = '0000000009' WHERE T1.h2 BETWEEN '0000000100' AND '0000000600'"
	for _, when := range []string{"clean", "dirty"} {
		if r := routeOf(t, f.db, sql); r != RouteScan {
			t.Fatalf("%s T1: planned route %s, want Scan", when, r)
		}
		res := run(sql)
		if got, want := res.Rows[0][0].I, f.refDML(t, sql); int(got) != want {
			t.Fatalf("%s T1: UPDATE affected %d rows, reference %d", when, got, want)
		}
		if _, ci := op(res, spanCI); ci {
			t.Fatalf("%s T1: an UPDATE routed to Scan took the index", when)
		}
		if _, scan := op(res, spanScan); !scan {
			t.Fatalf("%s T1: an UPDATE routed to Scan did not scan", when)
		}
	}
}

// TestDMLReadsOnlyMatchedRows: a hidden SET's write stage loads each
// hidden-image page that holds a matched row the overlay does not serve
// exactly once and moves only those rows, at the mix's 7-buffer floor
// and at 32 buffers: its span's page reads are the distinct such pages
// and its bytes those rows × the image's row width. The overlay serves
// a row only when an earlier SET since the last compaction named a
// column this one does not overwrite (a carried-over column); otherwise
// every matched row is gathered from the image, upserted before or not.
// The cases, all SET h1 unless named: an id run past the write stage's
// first batch of ids, whose boundary falls inside one image page; a run
// half over rows upserted before, with no carried-over column; a
// hidden-predicate UPDATE on the then-dirty table; SET h3 over part of
// rows upserted before, after which a run half over upserted rows carries h3 over
// and the overlay serves its upserted rows (so the pages all of whose
// matched rows it holds are not read); and a zero-match UPDATE, which
// reads no image page. Every table's hidden columns then read as the
// reference's.
func TestDMLReadsOnlyMatchedRows(t *testing.T) {
	for _, buffers := range []int{minViableBuffers, 32} {
		t.Run(fmt.Sprintf("%d-buffers", buffers), func(t *testing.T) { dmlReadsOnlyMatchedRows(t, buffers) })
	}
}

func dmlReadsOnlyMatchedRows(t *testing.T, buffers int) {
	f := newFixtureOpts(t, 97, writesCards(), Options{
		RAMBudget:        buffers * 2048,
		FlashParams:      flash.Params{PageSize: 2048, PagesPerBlock: 16, Blocks: 8192, ReserveBlocks: 4},
		CompactThreshold: -1,
	})
	t0, _ := f.sch.Lookup("T0")
	tok := f.db.TokenOf(t0.Index)
	file, width := tok.Hidden[t0.Index].File, tok.Hidden[t0.Index].Codec.Width()
	// The write stage pulls the Merge's ids one buffer of ids at a time:
	// start the first run where that boundary splits an image page.
	batch := 2048 / store.IDBytes
	lo := 0
	for file.PageOf(uint32(lo+batch-1)) != file.PageOf(uint32(lo+batch)) {
		lo++
	}
	// check runs UPDATE T0 SET set … WHERE where and returns how many
	// matched rows the image served, how many the overlay held, and how
	// many pages holding a matched row were not read. carried says
	// whether the overlay serves the rows it holds.
	check := func(set, where string, carried bool) (image, overlay, skipped int) {
		t.Helper()
		sel, err := f.db.Run("SELECT T0.id FROM T0 WHERE " + where)
		if err != nil {
			t.Fatal(err)
		}
		dl := tok.deltaOf(t0.Index)
		read, matched := map[int]bool{}, map[int]bool{}
		for _, row := range sel.Rows {
			id := uint32(row[0].I)
			matched[file.PageOf(id)] = true
			if dl != nil {
				if _, ok := dl.Lookup(id); ok {
					overlay++
					if carried {
						continue
					}
				}
			}
			read[file.PageOf(id)] = true
			image++
		}
		sql := "UPDATE T0 SET " + set + " = '0000000007' WHERE " + where
		res, err := f.db.Run(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if n := int(res.Rows[0][0].I); n != len(sel.Rows) || n != f.refDML(t, sql) {
			t.Fatalf("%s: %d rows, its SELECT %d", sql, n, len(sel.Rows))
		}
		var got flash.Counters
		for _, o := range res.Stats.Ops {
			if o.Name == spanDML {
				got = o.Sample.Flash
			}
		}
		if got.PageReads != uint64(len(read)) || got.BytesToRAM != uint64(image*width) {
			t.Fatalf("%s: DML stage read %d pages, %d B; want %d pages, %d rows × %d B",
				sql, got.PageReads, got.BytesToRAM, len(read), image, width)
		}
		return image, overlay, len(matched) - len(read)
	}
	if image, _, _ := check("h1", fmt.Sprintf("T0.id >= %d AND T0.id <= %d", lo, lo+batch+40), false); image <= batch {
		t.Fatalf("the first run matched %d rows, not past a batch of %d", image, batch)
	}
	half := fmt.Sprintf("T0.id >= %d AND T0.id <= %d", lo+batch-200, lo+batch+200)
	if image, overlay, skipped := check("h1", half, false); overlay == 0 || image != 401 || skipped != 0 {
		t.Fatalf("the second run read %d rows from the image, %d of them upserted before, skipping %d pages", image, overlay, skipped)
	}
	if image, _, _ := check("h1", "T0.h3 BETWEEN '0000000100' AND '0000000160'", false); image == 0 {
		t.Fatal("the hidden-predicate UPDATE matched no row")
	}
	// SET h3 carries h1 over; from now on every SET h1 carries h3 over.
	check("h3", fmt.Sprintf("T0.id >= %d AND T0.id <= %d", lo, lo+batch), true)
	if image, overlay, skipped := check("h1", fmt.Sprintf("T0.id >= %d AND T0.id <= %d", lo+batch+100, lo+batch+400), true); image == 0 || overlay == 0 || skipped == 0 {
		t.Fatalf("the carried-over run read %d rows from the image and %d from the overlay, skipping %d pages", image, overlay, skipped)
	}
	if image, overlay, _ := check("h1", "T0.h3 > '0000005000'", true); image+overlay != 0 {
		t.Fatalf("the zero-match UPDATE matched %d rows", image+overlay)
	}
	f.checkQuery(t, "SELECT T0.id, T0.h1, T0.h2, T0.h3 FROM T0", "after the hidden SETs")
}

// TestDMLPoisonedPages: every page lent from the token's pool is filled
// with 0xFF before its stage uses it, so a hidden SET whose write stage
// kept a byte of a row its gather did not transfer would stage 0xFF into
// that row's other hidden columns. Random UPDATE/DELETE sequences, half
// of them hidden SETs, with random SELECTs between them, answer as
// internal/ref does at 7 and 32 buffers, and so does every table's
// hidden columns read in full at the end; the write stage's row reader
// is among the pages poisoned.
func TestDMLPoisonedPages(t *testing.T) {
	rowLends := 0
	lendHook = func(_ *queryRun, buf []byte) {
		if calledFrom("(*queryRun).writeRows") {
			rowLends++
		}
		for i := range buf {
			buf[i] = 0xFF
		}
	}
	defer func() { lendHook = nil }()
	cards := writesCards()
	for _, buffers := range []int{minViableBuffers, 32} {
		t.Run(fmt.Sprintf("%d-buffers", buffers), func(t *testing.T) {
			f := newFixtureOpts(t, 97, cards, Options{
				RAMBudget:   buffers * 2048,
				FlashParams: flash.Params{PageSize: 2048, PagesPerBlock: 16, Blocks: 8192, ReserveBlocks: 4},
			})
			rng := rand.New(rand.NewSource(int64(71 + buffers)))
			for i := 0; i < 60; i++ {
				f.applyDML(t, randomDML(rng, cards))
				if i%3 == 2 {
					f.checkQuery(t, randomQuery(rng), "between random DML")
				}
			}
			for _, tb := range []string{"T0", "T1", "T2", "T11", "T12"} {
				f.checkQuery(t, fmt.Sprintf("SELECT %[1]s.id, %[1]s.h1, %[1]s.h2, %[1]s.h3 FROM %[1]s", tb), "after random DML")
			}
		})
	}
	if rowLends == 0 {
		t.Fatal("no write stage borrowed its row reader's page")
	}
}
