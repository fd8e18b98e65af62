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
// again from the rebuilt base images. It runs at the 7-buffer floor of
// the mix, where the Merge feeding a DML's write stage reduces its
// sublists, and at the paper's 32 buffers.
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

// TestDeltaReadIgnoresWriteMatches is the hidden-twin check on the
// overlay read: two databases loaded alike each run a hidden UPDATE and
// a DELETE of the same shapes, which match rows on one twin and none on
// the other (their ranges lie past the value domain), then the same
// SELECTs — a visible-only one and a join that read T1's liveness, and
// one projecting T1's hidden attributes, which reads its images. What
// each SELECT's Delta stage reads is the statement text's choice: its
// flash sample is identical across the twins, and the images read is
// the liveness read plus the upsert log.
func TestDeltaReadIgnoresWriteMatches(t *testing.T) {
	selects := []string{
		"SELECT T1.id, T1.v1 FROM T1 WHERE T1.v2 < '0000000500'",
		"SELECT T0.id, T1.v1 FROM T0, T1 WHERE T0.fk1 = T1.id AND T0.h1 < '0000000300'",
		"SELECT T1.id, T1.h1 FROM T1 WHERE T1.v2 < '0000000500'",
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
	if deltaOf(a[1]).Flash != live || images.PageReads != live.PageReads+1 || images.BytesToRAM <= live.BytesToRAM {
		t.Fatalf("liveness reads %+v and %+v, images read %+v; want equal liveness and one upsert page more",
			live, deltaOf(a[1]).Flash, images)
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
	for _, want := range []string{"delete from", "anchor: T1", "via CI", "delta: T1 images",
		"footprint (buffers): QEPSJ 3 (merge 3, then write stage 1 + a stream per merge group)",
		"admission: min 3 of 32 buffers (2048 B each), want 3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DML explain missing %q:\n%s", want, out)
		}
	}
	if f.db.Totals().Queries != 0 {
		t.Fatal("EXPLAIN executed the statement")
	}
	// The overlay read follows the text: a DELETE by id needs liveness
	// only, a hidden SET the images it rewrites.
	for sql, want := range map[string]string{
		"DELETE FROM T1 WHERE T1.id <= 3":                            "delta: T1 liveness\n",
		"UPDATE T1 SET h2 = '0000000001' WHERE T1.id <= 3":           "delta: T1 images\n",
		"UPDATE T1 SET v2 = '0000000001' WHERE T1.v1 < '0000000003'": "delta: T1 liveness\n",
	} {
		stmt, err := f.db.Prepare(sql, QueryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if out := stmt.Plan().Explain(); !strings.Contains(out, want) {
			t.Fatalf("%s: EXPLAIN misses %q:\n%s", sql, want, out)
		}
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
