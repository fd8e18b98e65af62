package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"ghostdb/internal/flash"
	"ghostdb/internal/obs"
	"ghostdb/internal/query"
	"ghostdb/internal/ram"
	"ghostdb/internal/sched"
	"ghostdb/internal/schema"
	"ghostdb/internal/sqlparse"
)

// sessionSpans collects, depth first, the exec span of every session in
// a trace, failing unless each directly follows its admission span.
func sessionSpans(t *testing.T, sp obs.SpanJSON) []obs.SpanJSON {
	t.Helper()
	var out []obs.SpanJSON
	for i, c := range sp.Children {
		switch c.Name {
		case "admission":
			if i+1 == len(sp.Children) || sp.Children[i+1].Name != "exec" {
				t.Fatalf("admission span under %q is not followed by an exec span", sp.Name)
			}
		case "exec":
			if i == 0 || sp.Children[i-1].Name != "admission" {
				t.Fatalf("exec span under %q does not follow an admission span", sp.Name)
			}
			out = append(out, c)
		default:
			out = append(out, sessionSpans(t, c)...)
		}
	}
	return out
}

// TestEverySessionTakesOnePath runs each statement kind on a traced
// two-token engine and checks that it reached its token through the one
// admit/meter path: one admission span then one exec span per session
// (two for a scatter), each carrying its token and grant; a slot hold
// observed for every admission on every shard; and, for the metered
// kinds, Stats with a queue wait, a grant and a RAM high water.
func TestEverySessionTakesOnePath(t *testing.T) {
	f := newForestFixtureOpts(t, 11, forestCards(), Options{
		FlashParams:      flash.Params{PageSize: 2048, PagesPerBlock: 16, Blocks: 8192, ReserveBlocks: 4},
		Shards:           2,
		CompactThreshold: -1,
	})
	ctx := context.Background()
	t0, _ := f.sch.Lookup("T0")
	tok := f.db.TokenOf(t0.Index)
	run := func(sql string) func(*obs.Trace) (Stats, error) {
		return func(tr *obs.Trace) (Stats, error) {
			res, err := f.db.RunCtx(ctx, sql, QueryConfig{Trace: tr})
			if err != nil {
				return Stats{}, err
			}
			return res.Stats, nil
		}
	}
	steps := []struct {
		name     string
		run      func(*obs.Trace) (Stats, error)
		sessions int
		metered  bool
	}{
		{"SELECT", run(`SELECT T0.id, T1.v2 FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.v1 < '0000000400' AND T1.h2 < '0000000500'`), 1, true},
		{"scatter", run(`SELECT T12.id, U1.v1 FROM T12, U1 WHERE T12.h1 < '0000000200' AND U1.h2 < '0000000300'`), 2, true},
		{"UPDATE", run(`UPDATE T1 SET h1 = '0000000007' WHERE T1.id <= 20`), 1, true},
		{"DELETE", run(`DELETE FROM T2 WHERE T2.h1 < '0000000100'`), 1, true},
		{"INSERT", run(`INSERT INTO T12 VALUES ('0000000001','0000000002','0000000003','0000000007','0000000005','0000000006')`), 1, false},
		// DB.Compact runs compactOn per token; calling it directly lets
		// the compaction nest under this step's trace.
		{"COMPACT", func(tr *obs.Trace) (Stats, error) { return f.db.compactOn(ctx, tok, tr.Root()) }, 1, true},
	}
	reg := f.db.Metrics()
	for _, step := range steps {
		tr := obs.NewTrace(step.name)
		st, err := step.run(tr)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		tr.Finish()
		execs := sessionSpans(t, tr.Snapshot())
		if len(execs) != step.sessions {
			t.Fatalf("%s: %d sessions in the trace, want %d", step.name, len(execs), step.sessions)
		}
		for _, ex := range execs {
			var id, grant int
			if _, err := fmt.Sscanf(ex.Note, "token %d, grant %d buffers", &id, &grant); err != nil || grant <= 0 {
				t.Errorf("%s: exec span note %q", step.name, ex.Note)
			}
		}
		for shard := 0; shard < 2; shard++ {
			l := obs.L("shard", fmt.Sprint(shard))
			holds := reg.FindHistogram("ghostdb_slot_occupancy_seconds", l).Count()
			admits := reg.Counter("ghostdb_sched_admissions_total", "", l).Value()
			if holds != admits {
				t.Errorf("%s: shard %d observed %d slot holds for %d admissions", step.name, shard, holds, admits)
			}
		}
		if step.metered && (st.QueueWait < 0 || st.GrantBuffers <= 0 || st.RAMHigh <= 0) {
			t.Errorf("%s: QueueWait %v, GrantBuffers %d, RAMHigh %d", step.name, st.QueueWait, st.GrantBuffers, st.RAMHigh)
		}
	}
	if tok.Compactions() != 1 {
		t.Fatalf("%d compactions, want 1", tok.Compactions())
	}
}

// TestTokenTotalsBookEveryMeteredSession is the one-token conservation
// law: the Stats of every metered statement plus the counters of the
// compaction sum to the token's totals, and only metered sessions
// count. INSERT is not metered (its Stats are zero) and books nothing.
func TestTokenTotalsBookEveryMeteredSession(t *testing.T) {
	f := newFixtureOpts(t, 97, writesCards(), Options{
		FlashParams:      flash.Params{PageSize: 2048, PagesPerBlock: 16, Blocks: 8192, ReserveBlocks: 4},
		CompactThreshold: -1,
	})
	var want Totals
	book := func(fc flash.Counters, down, up uint64) {
		want.Queries++
		want.Flash = want.Flash.Add(fc)
		want.BusDown += down
		want.BusUp += up
	}
	for _, st := range goldenWrites() {
		if st.sql == goldenCompact {
			if err := f.db.Compact(context.Background()); err != nil {
				t.Fatal(err)
			}
			book(tokenSample(f.db))
			continue
		}
		res, err := f.db.Run(st.sql)
		if err != nil {
			t.Fatalf("%s: %v", st.sql, err)
		}
		if !strings.HasPrefix(st.sql, "INSERT") {
			book(res.Stats.Flash, res.Stats.BusDown, res.Stats.BusUp)
		}
	}
	got := f.db.TokenTotals()[0]
	if got.Queries != want.Queries || got.Flash != want.Flash || got.BusDown != want.BusDown || got.BusUp != want.BusUp {
		t.Fatalf("token totals %d sessions, %+v, bus %d/%d; metered sessions sum to %d, %+v, bus %d/%d",
			got.Queries, got.Flash, got.BusDown, got.BusUp, want.Queries, want.Flash, want.BusDown, want.BusUp)
	}
}

// TestEveryClientStatementBookedOnce drives every client entry point on
// a two-token engine with the result cache on — RunCtx and prepared
// statements, hits and misses, a scatter, every write kind and two kinds
// of failure — and checks after each step that the statement landed
// exactly once in every client-level count: the SLO window, the client
// totals and the simulated-latency histogram count the successes, the
// error counter the failures, the totals' hit count the cache hits, and
// nothing is left in flight.
func TestEveryClientStatementBookedOnce(t *testing.T) {
	f := newForestFixtureOpts(t, 11, forestCards(), Options{
		FlashParams:      flash.Params{PageSize: 2048, PagesPerBlock: 16, Blocks: 8192, ReserveBlocks: 4},
		Shards:           2,
		CompactThreshold: -1,
		ResultCacheBytes: 1 << 20,
	})
	ctx := context.Background()
	prepare := func(sql string) *Stmt {
		ps, err := f.db.Prepare(sql, QueryConfig{})
		if err != nil {
			t.Fatalf("prepare %s: %v", sql, err)
		}
		return ps
	}
	run := func(sql string, cfg QueryConfig) func() error {
		return func() error { _, err := f.db.RunCtx(ctx, sql, cfg); return err }
	}
	runPrepared := func(ps *Stmt, cfg QueryConfig) func() error {
		return func() error { _, err := ps.RunCtx(ctx, cfg); return err }
	}
	const sel = `SELECT T0.id, T1.v2 FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.v1 < '0000000400' AND T1.h2 < '0000000500'`
	prepSel := prepare(`SELECT T0.id, T1.v1 FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.v1 < '0000000300' AND T1.h1 < '0000000600'`)
	prepDel := prepare(`DELETE FROM T2 WHERE T2.h1 < '0000000100'`)
	steps := []struct {
		name string
		run  func() error
		ok   bool
		hit  bool
	}{
		{"RunCtx SELECT miss", run(sel, QueryConfig{}), true, false},
		{"RunCtx SELECT hit", run(sel, QueryConfig{}), true, true},
		{"prepared SELECT", runPrepared(prepSel, QueryConfig{}), true, false},
		{"prepared SELECT, forced strategy", runPrepared(prepSel, QueryConfig{Strategy: StratCrossPre}), true, false},
		{"scatter SELECT", run(`SELECT T12.id, U1.v1 FROM T12, U1 WHERE T12.h1 < '0000000200' AND U1.h2 < '0000000300'`, QueryConfig{}), true, false},
		{"RunCtx UPDATE", run(`UPDATE T1 SET h1 = '0000000007' WHERE T1.id <= 20`, QueryConfig{}), true, false},
		{"RunCtx INSERT", run(`INSERT INTO T12 VALUES ('0000000001','0000000002','0000000003','0000000007','0000000005','0000000006')`, QueryConfig{}), true, false},
		{"prepared DELETE", runPrepared(prepDel, QueryConfig{}), true, false},
		{"parse error", run(`SELEC T0.id FROM T0`, QueryConfig{}), false, false},
		{"budget too small", run(`SELECT T1.id FROM T1 WHERE T1.h2 < '0000000050'`, QueryConfig{MinBuffers: 1 << 20}), false, false},
	}
	reg := f.db.Metrics()
	var succeeded, failed, hits uint64
	for _, step := range steps {
		err := step.run()
		if step.ok != (err == nil) {
			t.Fatalf("%s: err = %v, want success %v", step.name, err, step.ok)
		}
		if step.name == "budget too small" && !errors.Is(err, ErrBudgetTooSmall) {
			t.Fatalf("%s: err = %v, want ErrBudgetTooSmall", step.name, err)
		}
		if step.ok {
			succeeded++
		} else {
			failed++
		}
		if step.hit {
			hits++
		}
		slo, tot := f.db.SLO(), f.db.Totals()
		sims := reg.FindHistogram("ghostdb_query_sim_seconds").Count()
		errs := reg.Counter("ghostdb_query_errors_total", "").Value()
		if slo.Count != succeeded || tot.Queries != succeeded || sims != succeeded {
			t.Errorf("%s: SLO count %d, totals %d, sim histogram %d; want %d successes each",
				step.name, slo.Count, tot.Queries, sims, succeeded)
		}
		if errs != failed {
			t.Errorf("%s: %d errors counted, want %d", step.name, errs, failed)
		}
		if tot.CacheHits != hits {
			t.Errorf("%s: %d cache hits booked, want %d", step.name, tot.CacheHits, hits)
		}
		if slo.InFlight != 0 {
			t.Errorf("%s: %d statements still in flight", step.name, slo.InFlight)
		}
	}
}

// TestLeakedSeesSessionClaims: releasing a session makes the shared
// budget whole even when an operator left a claim on the session's
// private budget, so the shared budget alone cannot show such a leak.
// db.Leaked must report it.
func TestLeakedSeesSessionClaims(t *testing.T) {
	f := newFixture(t, 7, map[string]int{"T0": 50, "T1": 20, "T2": 20, "T11": 10, "T12": 10})
	s, err := f.db.admit(context.Background(), f.db.tokens[0], sched.Request{MinBuffers: 2, WantBuffers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.sess.RAM().Plan(ram.Claim{Name: "forgotten", Min: 1, Want: 1}); err != nil {
		t.Fatal(err)
	}
	s.end()
	if f.db.RAM.InUse() != 0 || f.db.RAM.Leaked() {
		t.Fatalf("the shared budget holds %d bytes after the session ended", f.db.RAM.InUse())
	}
	if !f.db.Leaked() {
		t.Fatal("db.Leaked() is false after a session ended holding a claim")
	}
}

// TestStagesClaimTheirPages: every page buffer an operator borrows from
// its token's free list backs a reader or writer of the running stage,
// and that stage claims a RAM buffer for it, so at no borrow are more
// pages lent than the session's budget has given out. Replays every
// golden corpus at its grants; the writes corpus's UPDATE/DELETE
// statements lend pages too (Scan streams, reduction spills). The Scan
// stage of a predicate below the anchor lends two, its image reader's
// and its matches writer's; an anchor predicate's Scan stream is lent
// its page when the Merge stage opens it, beside the pages the store
// pipeline's claims keep for their writers, so the Merge stage claims
// it; and the DML stage of every hidden SET lends one, its row reader's.
func TestStagesClaimTheirPages(t *testing.T) {
	var over []string
	dmlLends, streamLends := 0, 0
	scanLends := map[*queryRun]int{}
	rowLends := map[*queryRun]int{}
	rowSQL := map[string]bool{}
	lendHook = func(r *queryRun, _ []byte) {
		if r.plan.DML {
			dmlLends++
		}
		if calledFrom("(*queryRun).scanFallback") {
			scanLends[r]++
		}
		if calledFrom("(*scanStream).open") {
			streamLends++
			pipe, _ := r.pipeline()
			if !calledFrom("(*queryRun).openMerged") || r.ram.InUse()/r.ram.BufferSize() < r.tok.lent+claimMin(pipe) {
				over = append(over, r.q.SQL+": a Scan stream was lent its page beyond the Merge stage's claims")
			}
		}
		if calledFrom("(*queryRun).writeRows") {
			rowLends[r]++
			if !r.plan.dml.HiddenSets() {
				over = append(over, r.q.SQL+": a write stage without a hidden SET borrowed a page")
			}
			rowSQL[r.q.SQL] = true
		}
		if claimed := r.ram.InUse() / r.ram.BufferSize(); r.tok.lent > claimed {
			over = append(over, fmt.Sprintf("[%v/%v] %s: %d pages lent, %d buffers claimed",
				r.cfg.Strategy, r.cfg.Projector, r.q.SQL, r.tok.lent, claimed))
		}
	}
	defer func() { lendHook = nil }()
	recordGolden(t, nil)
	if len(over) > 0 {
		t.Fatalf("%d borrows beyond the claims, first: %s", len(over), over[0])
	}
	if dmlLends == 0 {
		t.Fatal("no UPDATE/DELETE statement borrowed a page")
	}
	if len(scanLends) == 0 {
		t.Fatal("no Scan stage borrowed a page")
	}
	if streamLends == 0 {
		t.Fatal("no Merge stage opened a Scan stream")
	}
	for r, n := range scanLends {
		if n < 2 {
			t.Fatalf("%s: the Scan stage borrowed %d page, want its image reader's and its matches writer's", r.q.SQL, n)
		}
	}
	for r, n := range rowLends {
		if n != 1 {
			t.Fatalf("%s: the DML stage borrowed %d pages, want its row reader's", r.q.SQL, n)
		}
	}
	sch, err := schema.New(synthDefs())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range goldenWrites() {
		if !strings.HasPrefix(st.sql, "UPDATE") {
			continue
		}
		stmt, err := sqlparse.Parse(st.sql)
		if err != nil {
			t.Fatal(err)
		}
		up := stmt.(*sqlparse.Update)
		d, err := query.ResolveUpdate(sch, up, st.sql)
		if err != nil {
			t.Fatal(err)
		}
		if d.HiddenSets() && !rowSQL[d.Canonical()] {
			t.Fatalf("%s: the DML stage of a hidden SET borrowed no row-reader page", st.sql)
		}
	}
}

// calledFrom reports whether a function whose name ends in fn (or one of
// its closures) is on the caller's stack: how a hook tells which stage
// borrowed a page.
func calledFrom(fn string) bool {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if name := f.Function; strings.HasSuffix(name, fn) || strings.Contains(name, fn+".") {
			return true
		}
		if !more {
			return false
		}
	}
}
