package exec

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ghostdb/internal/flash"
)

// TestPostSelectSeedRegression pins the quick.Check seed that broke the
// seed repository: seed -7675354091881124866 generates a Post-Select
// query whose staging phase ran while the QEPSJ pipeline still held its
// writer and Bloom-filter grants, so the old `Available() - k*BufferSize`
// admission arithmetic concluded there was "not enough RAM for
// post-select" and failed the query outright. With reservation-based
// admission the operator takes a smaller staging grant and re-scans the
// result column more times instead.
func TestPostSelectSeedRegression(t *testing.T) {
	f := newFixture(t, 77, map[string]int{"T0": 1200, "T1": 150, "T2": 120, "T11": 40, "T12": 40})
	strategies := []Strategy{StratAuto, StratPre, StratCrossPre, StratPost,
		StratCrossPost, StratPostSelect, StratNoFilter}
	projectors := []Projector{ProjectBloom, ProjectNoBF, ProjectBruteForce}

	// Replay exactly what TestRandomQueriesMatchReferenceProperty does
	// with the recorded seed, so the regression stays pinned even if the
	// random query generator evolves around it.
	const seed = int64(-7675354091881124866)
	rng := rand.New(rand.NewSource(seed))
	sql := randomQuery(rng)
	s := strategies[rng.Intn(len(strategies))]
	pj := projectors[rng.Intn(len(projectors))]
	if s != StratPostSelect {
		t.Logf("note: seed no longer forces Post-Select (got %v); still checking", s)
	}
	want := f.refAnswer(t, sql)
	res, err := f.db.RunCtx(context.Background(), sql, QueryConfig{Strategy: s, Projector: pj})
	if err != nil {
		t.Fatalf("seed %d [%v/%v] %s: %v", seed, s, pj, sql, err)
	}
	if !rowsEqual(res.Rows, want) {
		t.Fatalf("seed %d [%v/%v]: %d rows vs %d\nsql: %s", seed, s, pj, len(res.Rows), len(want), sql)
	}
	if f.db.RAM.Leaked() {
		t.Fatalf("seed %d: RAM grants leaked", seed)
	}
	checkNoLeak(t, f.db, sql)

	// The same query must also survive with every strategy/projector
	// combination forced, not just the recorded one.
	for _, fs := range strategies {
		for _, fp := range projectors {
			res, err := f.db.RunCtx(context.Background(), sql, QueryConfig{Strategy: fs, Projector: fp})
			if err != nil {
				t.Fatalf("[%v/%v] %s: %v", fs, fp, sql, err)
			}
			if !rowsEqual(res.Rows, want) {
				t.Fatalf("[%v/%v]: %d rows vs %d", fs, fp, len(res.Rows), len(want))
			}
			if f.db.RAM.Leaked() {
				t.Fatalf("[%v/%v]: RAM grants leaked", fs, fp)
			}
		}
	}
}

// TestInsertsOnTwiceImageDevice pins the FTL relocation fix end to end:
// INSERT-only traffic on a device twice the loaded image leaves live
// pages (rows, index entries) scattered among dead ones, so the
// collector must relocate valid pages. Before the fix the run died near
// statement 480 with "flash: invalid logical page".
func TestInsertsOnTwiceImageDevice(t *testing.T) {
	cards := map[string]int{"T0": 6000, "T1": 800, "T2": 600, "T11": 80, "T12": 80}
	image := newFixture(t, 5, cards).db.Dev.PagesUsed()
	const ppb = 16
	f := newFixtureOpts(t, 5, cards, Options{
		FlashParams: flash.Params{PageSize: 2048, PagesPerBlock: ppb, Blocks: 2*image/ppb + 4, ReserveBlocks: 4},
	})
	rng := rand.New(rand.NewSource(12))
	t0, _ := f.sch.Lookup("T0")
	t1, _ := f.sch.Lookup("T1")
	t2, _ := f.sch.Lookup("T2")
	for i := 0; i < 700; i++ {
		fk1, fk2 := rng.Intn(cards["T1"]), rng.Intn(cards["T2"])
		row := make([]string, 6)
		quoted := make([]string, 6)
		for c := range row {
			row[c] = pad(rng.Intn(testDomain))
			quoted[c] = "'" + row[c] + "'"
		}
		sql := fmt.Sprintf("INSERT INTO T0 (fk1, fk2, v1, v2, v3, h1, h2, h3) VALUES (%d, %d, %s)",
			fk1, fk2, strings.Join(quoted, ", "))
		if _, err := f.db.Run(sql); err != nil {
			t.Fatalf("insert %d (%d pages relocated so far): %v", i, f.db.Dev.Counters().GCPageMoves, err)
		}
		f.ref.Insert(t0.Index, mkRow(row...), map[int]uint32{t1.Index: uint32(fk1), t2.Index: uint32(fk2)})
		if i%100 == 99 {
			f.checkQuery(t, `SELECT T0.id, T0.h1, T1.v1 FROM T0, T1 WHERE T0.fk1 = T1.id AND T0.h2 < '0000000500'`,
				fmt.Sprintf("after %d inserts", i+1))
		}
	}
	if f.db.Dev.Counters().GCPageMoves == 0 {
		t.Fatal("no valid page was relocated: the device is too large to exercise the collector")
	}
}
