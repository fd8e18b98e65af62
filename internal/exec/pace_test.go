package exec

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ghostdb/internal/flash"
	"ghostdb/internal/obs"
)

// TestPaceTracksSimTime runs back-to-back paced statements on one token,
// paced so each nominal sleep (SimTime/pace) lies in 0.1–0.3 ms, the
// open-mix regime, and checks that the "pace" spans sum to the nominal
// total: within [0.9, 1.25]× of it, plus the one overshoot the token
// still carries as credit. A sleep per statement reads several times the
// nominal total wherever timer slack is a good fraction of a millisecond.
func TestPaceTracksSimTime(t *testing.T) {
	const stmts = 300
	sqls := make([]string, 6)
	for i := range sqls {
		sqls[i] = fmt.Sprintf(`SELECT T1.id, T1.h1 FROM T1 WHERE T1.h2 < '%010d'`, 300+40*i)
	}
	fp := flash.Params{PageSize: 2048, PagesPerBlock: 16, Blocks: 8192, ReserveBlocks: 4}

	// Size the pace from the statements' simulated costs on an unpaced
	// twin, so the largest nominal sleep is 0.3 ms.
	probe := newFixtureOpts(t, 7, defaultCards(), Options{FlashParams: fp})
	sims := make([]time.Duration, len(sqls))
	for i, sql := range sqls {
		res, err := probe.db.Run(sql)
		if err != nil {
			t.Fatal(err)
		}
		sims[i] = res.Stats.SimTime
	}
	pace := float64(slices.Max(sims)) / float64(300*time.Microsecond)
	if lo := time.Duration(float64(slices.Min(sims)) / pace); lo < 100*time.Microsecond {
		t.Fatalf("smallest nominal sleep %v is below 0.1 ms: the statements' costs spread too widely", lo)
	}

	f := newFixtureOpts(t, 7, defaultCards(), Options{FlashParams: fp, PaceSimulation: pace})
	var nominal, paced time.Duration
	for i := 0; i < stmts; i++ {
		sql := sqls[i%len(sqls)]
		tr := obs.NewTrace(sql)
		res, err := f.db.RunCtx(context.Background(), sql, QueryConfig{Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		sp, ok := tr.Snapshot().Find("pace")
		if !ok {
			t.Fatalf("statement %d has no pace span", i)
		}
		nominal += time.Duration(float64(res.Stats.SimTime) / pace)
		paced += time.Duration(sp.WallUs) * time.Microsecond
	}
	credit := -f.db.tokens[0].paceOwed
	lo, hi := time.Duration(0.9*float64(nominal)), time.Duration(1.25*float64(nominal))+credit
	t.Logf("%d statements: pace spans %v, nominal %v (%.2f×), carried credit %v", stmts, paced, nominal, float64(paced)/float64(nominal), credit)
	if paced < lo || paced > hi {
		t.Fatalf("pace spans sum to %v, want within [%v, %v] (nominal %v, %.2f×)", paced, lo, hi, nominal, float64(paced)/float64(nominal))
	}
}

// TestPaceCreditBoundedByOneOvershoot drives Token.pace directly with
// nominal holds of 0–0.3 ms: a positive balance is always slept off, a
// call that finds no debt does not sleep, and the credit a call leaves
// never exceeds the overshoot of its own sleep.
func TestPaceCreditBoundedByOneOvershoot(t *testing.T) {
	tok := &Token{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		d := time.Duration(rng.Intn(301)) * time.Microsecond
		owed := tok.paceOwed + d
		start := time.Now()
		tok.pace(d)
		wall := time.Since(start)
		left := tok.paceOwed
		switch {
		case left > 0:
			t.Fatalf("call %d: balance %v left positive", i, left)
		case owed <= 0 && left != owed:
			t.Fatalf("call %d: balance %v owed nothing but moved to %v", i, owed, left)
		case owed > 0 && -left > wall-owed:
			t.Fatalf("call %d: credit %v exceeds the call's overshoot %v", i, -left, wall-owed)
		}
	}
}
