package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"ghostdb/internal/flash"
	"ghostdb/internal/ram"
)

// These tests pin the planner's central contract: the plan derived
// before admission is *sufficient*. An admitted query — one whose floor
// fits the budget — must never hit ram.ErrExhausted mid-run, and must
// never allocate beyond its grant. Queries whose floor exceeds the
// budget are rejected cleanly, up front, with ErrBudgetTooSmall.

// TestPlanMatchesAdmissionRequest asserts the acceptance criterion that
// Prepare is the single planning path: the admission request a query
// session makes is exactly the plan's derived floor.
func TestPlanMatchesAdmissionRequest(t *testing.T) {
	f := newFixture(t, 42, defaultCards())
	for qi, sql := range testQueries {
		stmt, err := f.db.Prepare(sql, QueryConfig{})
		if err != nil {
			t.Fatalf("q%d prepare: %v", qi, err)
		}
		plan := stmt.Plan()
		if plan.MinBuffers < 1 || plan.MinBuffers > f.db.RAM.Buffers() {
			t.Fatalf("q%d: implausible floor %d", qi, plan.MinBuffers)
		}
		req := f.db.sessionRequest(plan, QueryConfig{})
		if req.MinBuffers != plan.MinBuffers {
			t.Fatalf("q%d: admission min %d != plan floor %d", qi, req.MinBuffers, plan.MinBuffers)
		}
		res, err := stmt.RunCtx(context.Background(), QueryConfig{})
		if err != nil {
			t.Fatalf("q%d run: %v", qi, err)
		}
		if res.Stats.PlanMinBuffers != plan.MinBuffers {
			t.Fatalf("q%d: session floor %d != plan floor %d", qi, res.Stats.PlanMinBuffers, plan.MinBuffers)
		}
		if !rowsEqual(res.Rows, f.refAnswer(t, sql)) {
			t.Fatalf("q%d: prepared run diverges from reference", qi)
		}
		// A caller-raised floor is honored; a caller-lowered one is not.
		if req := f.db.sessionRequest(plan, QueryConfig{MinBuffers: plan.MinBuffers + 3}); req.MinBuffers != plan.MinBuffers+3 {
			t.Fatalf("q%d: raised floor ignored", qi)
		}
		if req := f.db.sessionRequest(plan, QueryConfig{MinBuffers: 1}); req.MinBuffers != plan.MinBuffers {
			t.Fatalf("q%d: floor lowered below the plan minimum", qi)
		}
	}
}

// randomConfig draws a forced strategy (Auto included) and a projector.
func randomConfig(rng *rand.Rand) QueryConfig {
	strategies := []Strategy{StratAuto, StratPre, StratCrossPre, StratPost,
		StratCrossPost, StratPostSelect, StratCrossPostSelect, StratNoFilter}
	projectors := []Projector{ProjectBloom, ProjectNoBF, ProjectBruteForce}
	return QueryConfig{
		Strategy:  strategies[rng.Intn(len(strategies))],
		Projector: projectors[rng.Intn(len(projectors))],
	}
}

// TestPlanFloorsSufficientProperty drives the random query corpus with
// random forced strategies and projectors at the default budget: every
// plan's floor must be honored by the run (no mid-run exhaustion, high
// water within the grant, floor == admission request).
func TestPlanFloorsSufficientProperty(t *testing.T) {
	f := newFixture(t, 77, map[string]int{"T0": 1200, "T1": 150, "T2": 120, "T11": 40, "T12": 40})
	rng := rand.New(rand.NewSource(2024))
	for i := 0; i < 150; i++ {
		sql := randomQuery(rng)
		cfg := randomConfig(rng)
		stmt, err := f.db.Prepare(sql, cfg)
		if err != nil {
			t.Fatalf("%s: prepare: %v", sql, err)
		}
		plan := stmt.Plan()
		res, err := stmt.RunCtx(context.Background(), cfg)
		if err != nil {
			if errors.Is(err, ErrBloomInfeasible) {
				continue // forced Post beyond sV=0.5, as in the paper
			}
			t.Fatalf("[%v/%v] %s: floor %d at %d-buffer budget, but run failed: %v",
				cfg.Strategy, cfg.Projector, sql, plan.MinBuffers, f.db.RAM.Buffers(), err)
		}
		if res.Stats.PlanMinBuffers != plan.MinBuffers {
			t.Fatalf("%s: admission floor %d != plan floor %d", sql, res.Stats.PlanMinBuffers, plan.MinBuffers)
		}
		if res.Stats.RAMHigh > res.Stats.GrantBuffers*f.db.RAM.BufferSize() {
			t.Fatalf("%s: high water %d exceeds the %d-buffer grant", sql, res.Stats.RAMHigh, res.Stats.GrantBuffers)
		}
		if !rowsEqual(res.Rows, f.refAnswer(t, sql)) {
			t.Fatalf("[%v/%v] %s: wrong answer", cfg.Strategy, cfg.Projector, sql)
		}
		if f.db.Leaked() {
			t.Fatalf("%s: grants leaked", sql)
		}
	}
}

// TestConcurrentInsertAndPlanNoRace pins the keyDist locking: planning
// reads the token-side index statistics *outside* the token's execution
// slot while concurrent INSERTs (holding the slot) mutate them — run
// under -race in CI.
func TestConcurrentInsertAndPlanNoRace(t *testing.T) {
	f := newFixture(t, 77, map[string]int{"T0": 200, "T1": 60, "T2": 50, "T11": 20, "T12": 20})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			sql := fmt.Sprintf(`INSERT INTO T12 VALUES ('%010d','%010d','%010d','%010d','%010d','%010d')`,
				i, i+1, i+2, i+3, i+4, i+5)
			if _, err := f.db.Run(sql); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 60; i++ {
		if _, err := f.db.Prepare(`SELECT id FROM T12 WHERE h1 < '0000000400'`, QueryConfig{}); err != nil {
			t.Fatalf("prepare: %v", err)
		}
	}
	<-done
}

// TestHiddenSelEstimateFromIndexStats pins the token-side statistics
// satellite: the planner's hidden-selectivity estimates come from the
// per-index key distribution instead of the fixed 10% guess, track the
// true uniform selectivity, and surface in EXPLAIN.
func TestHiddenSelEstimateFromIndexStats(t *testing.T) {
	f := newFixture(t, 77, map[string]int{"T0": 1200, "T1": 150, "T2": 120, "T11": 40, "T12": 40})
	cases := []struct {
		sql  string
		want float64 // true selectivity of the hidden predicate (uniform domain)
	}{
		{`SELECT T0.id FROM T0 WHERE T0.h1 < '0000000300'`, 0.3},
		{`SELECT T0.id FROM T0 WHERE T0.h1 >= '0000000800'`, 0.2},
		{`SELECT T0.id FROM T0 WHERE T0.h2 BETWEEN '0000000100' AND '0000000600'`, 0.5},
	}
	for _, tc := range cases {
		stmt, err := f.db.Prepare(tc.sql, QueryConfig{})
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		plan := stmt.Plan()
		if len(plan.HiddenSel) != 1 {
			t.Fatalf("%s: %d hidden estimates, want 1", tc.sql, len(plan.HiddenSel))
		}
		h := plan.HiddenSel[0]
		if !h.FromIndex {
			t.Fatalf("%s: estimate fell back to the fixed guess", tc.sql)
		}
		if h.Sel < tc.want-0.12 || h.Sel > tc.want+0.12 {
			t.Fatalf("%s: estimated sel %.3f, true %.2f (off by more than the histogram resolution)",
				tc.sql, h.Sel, tc.want)
		}
		if out := plan.Explain(); !strings.Contains(out, "hidden selectivity estimates") ||
			!strings.Contains(out, "index stats") {
			t.Fatalf("%s: EXPLAIN misses the estimate:\n%s", tc.sql, out)
		}
	}
	// Id predicates are exact: dense identifiers make the fraction pure
	// arithmetic on the literal.
	stmt, err := f.db.Prepare(`SELECT T0.id FROM T0 WHERE T0.id < 300`, QueryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if h := stmt.Plan().HiddenSel[0]; !h.FromIndex || h.Sel != 0.25 {
		t.Fatalf("id predicate estimate = %+v, want exact 0.25", h)
	}
}

// TestSharedStageLowersWideFloors pins the shared-staged-buffer win: the
// widest 3-table mix shapes used to floor at 7 buffers (QEPSJ writers
// each holding one); with the column writers collapsed into one staged
// spill buffer the floor drops below 7, and the query still runs to the
// exact answer in a budget of exactly that floor (where the session
// necessarily runs the spill variant: storeDirect is false).
func TestSharedStageLowersWideFloors(t *testing.T) {
	wide := []string{
		`SELECT T0.id, T1.id, T12.id, T1.v1 FROM T0, T1, T12 WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id AND T1.v1 < '0000000300' AND T12.h2 < '0000000100'`,
		`SELECT T0.id, T1.h1, T12.v2, T0.h3, T0.v1 FROM T0, T1, T12 WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id AND T1.v1 < '0000000400' AND T12.h2 < '0000000200'`,
		`SELECT T1.id, T11.id FROM T1, T11, T12 WHERE T1.fk11 = T11.id AND T1.fk12 = T12.id AND T11.h1 < '0000000300' AND T1.v1 < '0000000400'`,
	}
	probe := newFixture(t, 77, map[string]int{"T0": 1200, "T1": 150, "T2": 120, "T11": 40, "T12": 40})
	for _, sql := range wide {
		stmt, err := probe.db.Prepare(sql, QueryConfig{})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		plan := stmt.Plan()
		if plan.MinBuffers >= 7 {
			t.Fatalf("%s: floor %d, want < 7 (shared staged buffer)", sql, plan.MinBuffers)
		}
		if plan.Footprint.QEPSJShared >= plan.Footprint.QEPSJ {
			t.Fatalf("%s: shared footprint %d not below direct %d",
				sql, plan.Footprint.QEPSJShared, plan.Footprint.QEPSJ)
		}
		// Run in a budget of exactly the floor: the grant must pick the
		// spill variant and the answer must stay exact.
		f := sweepFixture(t, plan.MinBuffers)
		stmt2, err := f.db.Prepare(sql, QueryConfig{})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if got := stmt2.Plan().MinBuffers; got != plan.MinBuffers {
			t.Fatalf("%s: floor drifted across fixtures: %d vs %d", sql, got, plan.MinBuffers)
		}
		if stmt2.Plan().storeDirect(plan.MinBuffers) {
			t.Fatalf("%s: floor-sized grant picked direct writers", sql)
		}
		res, err := stmt2.RunCtx(context.Background(), QueryConfig{})
		if err != nil {
			t.Fatalf("%s at %d buffers: %v", sql, plan.MinBuffers, err)
		}
		if !rowsEqual(res.Rows, f.refAnswer(t, sql)) {
			t.Fatalf("%s at %d buffers: wrong answer via spill store", sql, plan.MinBuffers)
		}
		if f.db.Leaked() {
			t.Fatalf("%s: grants leaked", sql)
		}
	}
}

// TestPlanFloorSweepNoMidRunExhaustion is the satellite property test:
// across the RAM-budget sweep (the paper's 64KB down to the 7-buffer
// minimum and beyond, to 2), an admitted query may never hit
// ram.ErrExhausted mid-run — a floor above the budget must be rejected
// *before* admission with ErrBudgetTooSmall, and a floor within it must
// run to the exact answer with Stats.RAMHigh inside the grant. Each
// query runs under Auto and the default projector, then once more under
// its own rng-chosen forced strategy and projector, the same at every
// budget, so the Brute-Force and Post-Select floors are also checked at
// the budget that equals them.
func TestPlanFloorSweepNoMidRunExhaustion(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	var randoms []string
	for i := 0; i < 15; i++ {
		randoms = append(randoms, randomQuery(rng))
	}
	queries := append(append([]string{}, testQueries...), randoms...)
	cfgRng := rand.New(rand.NewSource(405))
	forced := make([]QueryConfig, len(queries))
	for i := range forced {
		forced[i] = randomConfig(cfgRng)
	}
	for buffers := ram.DefaultBudget / 2048; buffers >= 2; buffers-- {
		f := sweepFixture(t, buffers)
		for qi, sql := range queries {
			for _, cfg := range []QueryConfig{{}, forced[qi]} {
				stmt, err := f.db.Prepare(sql, cfg)
				if err != nil {
					t.Fatalf("%d buffers: %s: prepare: %v", buffers, sql, err)
				}
				plan := stmt.Plan()
				res, err := stmt.RunCtx(context.Background(), cfg)
				switch {
				case plan.MinBuffers > buffers:
					if err == nil {
						t.Fatalf("%d buffers [%v/%v]: %s: floor %d admitted anyway",
							buffers, cfg.Strategy, cfg.Projector, sql, plan.MinBuffers)
					}
					if !errors.Is(err, ErrBudgetTooSmall) {
						t.Fatalf("%d buffers [%v/%v]: %s: want clean admission denial, got: %v",
							buffers, cfg.Strategy, cfg.Projector, sql, err)
					}
				case errors.Is(err, ErrBloomInfeasible):
					// forced Post beyond sV=0.5, as in the paper
				case err != nil:
					t.Fatalf("%d buffers [%v/%v]: %s: floor %d fits but run failed mid-run: %v",
						buffers, cfg.Strategy, cfg.Projector, sql, plan.MinBuffers, err)
				case !rowsEqual(res.Rows, f.refAnswer(t, sql)):
					t.Fatalf("%d buffers [%v/%v]: %s: wrong answer", buffers, cfg.Strategy, cfg.Projector, sql)
				case res.Stats.RAMHigh > res.Stats.GrantBuffers*f.db.RAM.BufferSize():
					t.Fatalf("%d buffers [%v/%v]: %s: high water %d exceeds grant",
						buffers, cfg.Strategy, cfg.Projector, sql, res.Stats.RAMHigh)
				}
				if f.db.Leaked() {
					t.Fatalf("%d buffers: %s: grants leaked", buffers, sql)
				}
				if f.db.RAM.HighWater() > f.db.RAM.Budget() {
					t.Fatalf("%d buffers: %s: budget exceeded", buffers, sql)
				}
			}
		}
	}
}

// TestNarrowFloorsOverlapUnderCrowdedBudget pins the scheduling win the
// planner unlocks: queries with floors below the old 8-buffer default
// are admitted concurrently into a budget the fixed floor would have
// serialized.
func TestNarrowFloorsOverlapUnderCrowdedBudget(t *testing.T) {
	// A fixed 8-buffer floor would equal the whole budget, so at most
	// one such session could ever hold RAM.
	const budgetBuffers = 8
	f := newFixtureOpts(t, 42, defaultCards(), Options{
		RAMBudget:            budgetBuffers * 2048,
		FlashParams:          flash.Params{PageSize: 2048, PagesPerBlock: 16, Blocks: 8192, ReserveBlocks: 4},
		MaxConcurrentQueries: 4,
	})
	sql := `SELECT id, v1, h1 FROM T11 WHERE v1 < '0000000500' AND h2 >= '0000000800'`
	stmt, err := f.db.Prepare(sql, QueryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	plan := stmt.Plan()
	if 2*plan.MinBuffers > budgetBuffers {
		t.Fatalf("two sessions at the narrow query's floor (%d) do not fit the %d-buffer budget",
			plan.MinBuffers, budgetBuffers)
	}
	// With want clamped to the floor, two floor-sized sessions fit the
	// 8-buffer budget side by side — admission must grant both without
	// blocking.
	req := f.db.sessionRequest(plan, QueryConfig{WantBuffers: 1})
	acquire := func() chan error {
		done := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			sess, err := f.db.Sched().Acquire(ctx, req)
			if err != nil {
				done <- err
				return
			}
			done <- nil
			<-time.After(50 * time.Millisecond)
			sess.Release()
		}()
		return done
	}
	a, b := acquire(), acquire()
	if err := <-a; err != nil {
		t.Fatalf("first narrow session not admitted: %v", err)
	}
	if err := <-b; err != nil {
		t.Fatalf("second narrow session not admitted concurrently: %v", err)
	}
	// And the query itself still answers correctly at its tight grant.
	res, err := stmt.RunCtx(context.Background(), QueryConfig{WantBuffers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(res.Rows, f.refAnswer(t, sql)) {
		t.Fatal("narrow query wrong at floor-sized grant")
	}
	if res.Stats.GrantBuffers != plan.MinBuffers {
		t.Fatalf("grant %d != floor %d despite want=1", res.Stats.GrantBuffers, plan.MinBuffers)
	}
}

// TestExplainRendersPlan sanity-checks the EXPLAIN text: strategies,
// footprint and admission lines must all be present without executing.
// The delta line reads liveness for every table until a hidden SET names
// a column the query reads: T12.h2, filtered here.
func TestExplainRendersPlan(t *testing.T) {
	f := newFixture(t, 42, defaultCards())
	stmt, err := f.db.Prepare(testQueries[0], QueryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out := stmt.Plan().Explain()
	for _, frag := range []string{"plan:", "anchor: T0", "visible selections:", "T1",
		"delta: T0 liveness · T1 liveness · T12 liveness",
		"footprint (buffers):", "admission: min", "estimated cost:"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("EXPLAIN output missing %q:\n%s", frag, out)
		}
	}
	// Nothing ran: preparing and explaining must leave no trace on the
	// uplink audit trail or the RAM budget.
	if got := f.db.RAM.InUse(); got != 0 {
		t.Fatalf("explain reserved RAM: %d", got)
	}
	if ups := f.db.Bus.UplinkRecords(); len(ups) != 0 {
		t.Fatalf("explain leaked onto the bus: %+v", ups)
	}
	// INSERT plans are derived from the hidden codec width, not
	// hardcoded to one buffer.
	ins, err := f.db.Prepare(`INSERT INTO T12 VALUES ('a','b','c','d','e','f')`, QueryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !ins.Plan().Insert || ins.Plan().MinBuffers < 1 {
		t.Fatalf("insert plan = %+v", ins.Plan())
	}
	for _, set := range []string{"h1", "h2"} {
		if _, err := f.db.Run("UPDATE T12 SET " + set + " = '0000000001' WHERE T12.id = 1"); err != nil {
			t.Fatal(err)
		}
		stmt, err := f.db.Prepare(testQueries[0], QueryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]string{"h1": "T12 liveness\n", "h2": "T12 images\n"}[set]
		if out := stmt.Plan().Explain(); !strings.Contains(out, want) {
			t.Fatalf("after SET %s: EXPLAIN misses %q:\n%s", set, want, out)
		}
	}
}

// TestIDProbeReadsMatchesBruteForce checks the Pre-Filter climb's price
// against counted leaves. Exhaustively: over every sequence of n ids
// drawn from a tiny index, the mean number of distinct leaves times the
// height is the closed form, exactly. Sampled: n distinct ids, as a
// visible selection yields them, touch the predicted number of leaves
// of a paper-sized id index to within 3%.
func TestIDProbeReadsMatchesBruteForce(t *testing.T) {
	for _, c := range []struct{ rows, leafCap, n, height int }{
		{6, 2, 1, 2}, {6, 2, 3, 2}, {6, 2, 5, 2}, {9, 3, 4, 2}, {8, 1, 4, 2}, {4, 4, 3, 1},
	} {
		total, seqs := 0, 0
		ids := make([]int, c.n)
		var walk func(int)
		walk = func(i int) {
			if i == c.n {
				leaves := map[int]bool{}
				for _, id := range ids {
					leaves[id/c.leafCap] = true
				}
				total, seqs = total+len(leaves), seqs+1
				return
			}
			for id := 0; id < c.rows; id++ {
				ids[i] = id
				walk(i + 1)
			}
		}
		walk(0)
		want := float64(total) / float64(seqs) * float64(c.height)
		if got := idProbeReads(c.n, c.rows, c.leafCap, 8); math.Abs(got-want) > 1e-9 {
			t.Errorf("rows %d, %d a leaf, n %d: idProbeReads %.6f, brute force %.6f", c.rows, c.leafCap, c.n, got, want)
		}
	}
	rng := rand.New(rand.NewSource(16))
	const rows, leafCap, fanout, height = 100000, 150, 229, 3
	for _, n := range []int{10, 100, 1000, 10000, 50000} {
		touched := 0
		for draw := 0; draw < 10; draw++ {
			leaves := map[int]bool{}
			for _, id := range rng.Perm(rows)[:n] {
				leaves[id/leafCap] = true
			}
			touched += len(leaves)
		}
		want := float64(touched) / 10 * height
		if got := idProbeReads(n, rows, leafCap, fanout); math.Abs(got-want) > 0.03*want {
			t.Errorf("n %d of %d rows: idProbeReads %.1f, counted %.1f", n, rows, got, want)
		}
	}
	if got := idProbeReads(0, rows, leafCap, fanout); got != 0 {
		t.Errorf("no visible ids priced at %.1f reads", got)
	}
}
