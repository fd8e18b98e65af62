package exec

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ghostdb/internal/flash"
	"ghostdb/internal/metrics"
)

// reductionPagesByPass is reductionPages pass by pass: the reduction's
// own rule (union the k smallest sublists, k = min(fanIn, deficit+1))
// over an explicit list of sublist sizes.
func reductionPagesByPass(n, per, target, fanIn, idsPerPage int) (pages, ids int) {
	subs := make([]int, n)
	for i := range subs {
		subs[i] = per
	}
	for len(subs) > target {
		slices.Sort(subs)
		k := min(fanIn, len(subs)-target+1)
		out := 0
		for _, s := range subs[:k] {
			out += s
		}
		pages += (out + idsPerPage - 1) / idsPerPage
		ids += out
		subs = append(subs[k:], out)
	}
	return pages, ids
}

// TestReductionPagesMatchesPassByPass: the pricing's reduction model,
// which passes over equal sublists in bulk, writes what the reduction's
// rule writes one pass at a time.
func TestReductionPagesMatchesPassByPass(t *testing.T) {
	for n := 0; n <= 120; n += 1 + n/10 {
		for _, per := range []int{1, 3, 40, 600} {
			for target := 1; target <= 6; target++ {
				for fanIn := 2; fanIn <= 7; fanIn++ {
					gp, gi := reductionPages(n, per, target, fanIn, 512)
					wp, wi := reductionPagesByPass(n, per, target, fanIn, 512)
					if gp != wp || gi != wi {
						t.Fatalf("n=%d per=%d target=%d fan-in=%d: %d pages %d ids, pass by pass %d pages %d ids",
							n, per, target, fanIn, gp, gi, wp, wi)
					}
				}
			}
		}
	}
}

// anchorRouteQuery draws a query whose hidden predicates all lie on the
// anchor (one or two, BETWEEN ranges from a few keys to most of the
// domain), over a single table or a joined subtree, with an optional
// visible predicate and random projections.
func anchorRouteQuery(rng *rand.Rand) string {
	shape := subtreeShapes[rng.Intn(len(subtreeShapes))]
	anchor := shape.tables[0]
	var conj []string
	if shape.joins != "" {
		conj = append(conj, shape.joins)
	}
	for i := 1 + rng.Intn(2); i > 0; i-- {
		lo := rng.Intn(950)
		width := []int{2, 20, 200, 900}[rng.Intn(4)]
		conj = append(conj, fmt.Sprintf("%s.h%d BETWEEN '%010d' AND '%010d'", anchor, 1+rng.Intn(3), lo, min(lo+width, 999)))
	}
	if rng.Intn(2) == 0 {
		tb := shape.tables[rng.Intn(len(shape.tables))]
		conj = append(conj, fmt.Sprintf("%s.v%d < '%010d'", tb, 1+rng.Intn(3), rng.Intn(1000)))
	}
	var projs []string
	for i := 1 + rng.Intn(3); i > 0; i-- {
		tb := shape.tables[rng.Intn(len(shape.tables))]
		projs = append(projs, tb+"."+[]string{"id", "v1", "h2"}[rng.Intn(3)])
	}
	return fmt.Sprintf("SELECT %s FROM %s WHERE %s",
		strings.Join(projs, ", "), strings.Join(shape.tables, ", "), strings.Join(conj, " AND "))
}

// hasOp reports whether a run opened the named operator stage.
func hasOp(res *Result, name string) bool {
	return slices.ContainsFunc(res.Stats.Ops, func(o metrics.Op) bool { return o.Name == name })
}

// TestPlannedRouteProperty: a hidden predicate on the anchor runs by the
// route its plan priced, and EXPLAIN names it. Random single-table and
// joined queries, with random upserts and deletes (and one compaction)
// between them, at 7 and 32 buffers, answer as internal/ref does; each
// run opens the Scan stage exactly when some predicate's route is Scan
// or a CI route meets a table with live upserts, and the CI stage
// whenever a clean table's predicate is routed through its index. Both
// routes occur at both budgets, and no session leaks.
func TestPlannedRouteProperty(t *testing.T) {
	for _, buffers := range []int{minViableBuffers, 32} {
		t.Run(fmt.Sprintf("%d-buffers", buffers), func(t *testing.T) { plannedRouteProperty(t, buffers) })
	}
}

func plannedRouteProperty(t *testing.T, buffers int) {
	cards := writesCards()
	f := newFixtureOpts(t, 97, cards, Options{
		RAMBudget:   buffers * 2048,
		FlashParams: flash.Params{PageSize: 2048, PagesPerBlock: 16, Blocks: 8192, ReserveBlocks: 4},
	})
	rng := rand.New(rand.NewSource(int64(49 + buffers)))
	planned := map[string]int{}
	for i := 0; i < 90; i++ {
		if i%3 == 1 {
			f.applyDML(t, randomDML(rng, cards))
		}
		if i == 45 {
			if err := f.db.Compact(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		sql := anchorRouteQuery(rng)
		stmt, err := f.db.Prepare(sql, QueryConfig{})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		plan := stmt.Plan()
		explain := plan.Explain()
		wantScan, wantCI := false, false
		for _, h := range plan.HiddenSel {
			if !strings.Contains(explain, "via "+h.Route) {
				t.Fatalf("%s: EXPLAIN does not name route %s:\n%s", sql, h.Route, explain)
			}
			planned[h.Route]++
			t0, _ := f.sch.Lookup(h.Table)
			dl := f.db.TokenOf(t0.Index).deltaOf(t0.Index)
			dirty := dl != nil && dl.DirtyCount() > 0
			switch {
			case h.Route == RouteScan || dirty:
				wantScan = true
			default:
				wantCI = true
			}
		}
		res, err := stmt.RunCtx(context.Background(), QueryConfig{})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if want := f.refAnswer(t, sql); !rowsEqual(res.Rows, want) {
			t.Fatalf("%s: %d rows, reference %d", sql, len(res.Rows), len(want))
		}
		if hasOp(res, spanScan) != wantScan || wantCI && !hasOp(res, spanCI) {
			t.Fatalf("%s: ran %v, planned Scan %v, CI %v:\n%s", sql, res.Stats.Ops, wantScan, wantCI, explain)
		}
		if !wantCI && hasOp(res, spanCI) && !slices.ContainsFunc(plan.Tables, func(tp TablePlan) bool {
			return tp.Strategy == StratPre || tp.Strategy == StratCrossPre
		}) {
			t.Fatalf("%s: the CI stage ran though no predicate and no climb was routed through it", sql)
		}
		if f.db.Leaked() {
			t.Fatalf("%s: a session leaked", sql)
		}
	}
	t.Logf("%d buffers: planned routes %v", buffers, planned)
	if planned[RouteScan] < 10 || planned[RouteCI] < 10 {
		t.Fatalf("%d buffers: planned routes %v; want both sides of the crossover", buffers, planned)
	}
}

// TestScanRouteIgnoresUpdateMatches is the hidden-twin check on a table
// pricing sends to Scan: two databases loaded alike each run one hidden
// UPDATE of the same shape, which matches rows on one twin and none on
// the other (its range lies past the value domain), then the same
// SELECT. The UPDATE leaves live upserts on one twin only, and the
// SELECT's route does not depend on it: flash counters, Down bytes and
// every operator's sample are identical, at 7 and 32 buffers.
func TestScanRouteIgnoresUpdateMatches(t *testing.T) {
	for _, buffers := range []int{minViableBuffers, 32} {
		t.Run(fmt.Sprintf("%d-buffers", buffers), func(t *testing.T) { scanRouteIgnoresUpdateMatches(t, buffers) })
	}
}

func scanRouteIgnoresUpdateMatches(t *testing.T, buffers int) {
	const sel = "SELECT T1.id, T1.v2 FROM T1 WHERE T1.h2 BETWEEN '0000000100' AND '0000000600'"
	twin := func(update string) (*fixture, *Result) {
		f := newFixtureOpts(t, 97, writesCards(), Options{
			RAMBudget:   buffers * 2048,
			FlashParams: flash.Params{PageSize: 2048, PagesPerBlock: 16, Blocks: 8192, ReserveBlocks: 4},
		})
		stmt, err := f.db.Prepare(sel, QueryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if r := stmt.Plan().HiddenSel[0].Route; r != RouteScan {
			t.Fatalf("%s: planned route %s, want a table pricing sends to Scan", sel, r)
		}
		f.applyDML(t, update)
		res, err := f.db.Run(sel)
		if err != nil {
			t.Fatal(err)
		}
		if want := f.refAnswer(t, sel); !rowsEqual(res.Rows, want) {
			t.Fatalf("%s: %d rows, reference %d", sel, len(res.Rows), len(want))
		}
		return f, res
	}
	fa, a := twin("UPDATE T1 SET h1 = '0000000001' WHERE T1.h3 BETWEEN '0000000200' AND '0000000400'")
	fb, b := twin("UPDATE T1 SET h1 = '0000000001' WHERE T1.h3 BETWEEN '0000002200' AND '0000002400'")
	dirty := func(f *fixture) int {
		t1, _ := f.sch.Lookup("T1")
		if dl := f.db.TokenOf(t1.Index).deltaOf(t1.Index); dl != nil {
			return dl.DirtyCount()
		}
		return 0
	}
	if dirty(fa) == 0 || dirty(fb) != 0 {
		t.Fatalf("upserts: %d on the matching twin, %d on the other; want some and none", dirty(fa), dirty(fb))
	}
	if a.Stats.Flash != b.Stats.Flash || a.Stats.BusDown != b.Stats.BusDown {
		t.Fatalf("the SELECT differs across the twins: flash %+v / %+v, Down %d / %d",
			a.Stats.Flash, b.Stats.Flash, a.Stats.BusDown, b.Stats.BusDown)
	}
	if !slices.Equal(a.Stats.Ops, b.Stats.Ops) {
		t.Fatalf("per-operator samples differ across the twins:\n%v\n%v", a.Stats.Ops, b.Stats.Ops)
	}
	if !hasOp(a, spanScan) || hasOp(a, spanCI) {
		t.Fatalf("the SELECT ran %v, want the Scan stage and no CI", a.Stats.Ops)
	}
}

// routeOf is the planned route of a statement's first hidden predicate.
func routeOf(t *testing.T, db *DB, sql string) string {
	t.Helper()
	stmt, err := db.Prepare(sql, QueryConfig{})
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	for _, h := range stmt.Plan().HiddenSel {
		if h.Col != "id" {
			return h.Route
		}
	}
	t.Fatalf("%s: no hidden attribute predicate", sql)
	return ""
}
