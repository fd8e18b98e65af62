package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ghostdb/internal/flash"
	"ghostdb/internal/metrics"
	"ghostdb/internal/query"
)

// opSample is the named operator's sample in a run's Stats (zero when
// the run did not open it).
func opSample(res *Result, name string) metrics.Sample {
	i := slices.IndexFunc(res.Stats.Ops, func(o metrics.Op) bool { return o.Name == name })
	if i < 0 {
		return metrics.Sample{}
	}
	return res.Stats.Ops[i].Sample
}

// scanRouted prepares sel, checks that its plan routes its one hidden
// predicate through the Scan stage, and returns that predicate.
func scanRouted(t *testing.T, db *DB, sel string) query.Pred {
	t.Helper()
	stmt, err := db.Prepare(sel, QueryConfig{})
	if err != nil {
		t.Fatalf("%s: %v", sel, err)
	}
	if r := stmt.Plan().HiddenSel[0].Route; r != RouteScan {
		t.Fatalf("%s: planned route %s, want Scan", sel, r)
	}
	preds := stmt.sel.Preds
	if len(preds) != 1 {
		t.Fatalf("%s: %d predicates, want one", sel, len(preds))
	}
	return preds[0]
}

// TestScanPriceEqualsActual: on tables the plan routes to Scan, at 7
// and 32 buffers, the Scan stage's page reads, writes and bytes, plus
// the Merge's read of the matches' run, equal what scanIO prices for the
// run's match count exactly: every image page loaded once, the
// predicate's column moved from each row, the matches written and read
// back as one run.
func TestScanPriceEqualsActual(t *testing.T) {
	sels := []string{
		"SELECT T1.id, T1.v2 FROM T1 WHERE T1.h2 BETWEEN '0000000100' AND '0000000600'",
		"SELECT T1.id FROM T1 WHERE T1.h3 < '0000000300'",
		"SELECT T0.id, T0.h1 FROM T0 WHERE T0.h3 >= '0000000700'",
		"SELECT T0.id FROM T0 WHERE T0.h1 <> '0000000123'",
	}
	for _, buffers := range []int{minViableBuffers, 32} {
		t.Run(fmt.Sprintf("%d-buffers", buffers), func(t *testing.T) {
			f := newFixtureOpts(t, 97, writesCards(), Options{
				RAMBudget:   buffers * 2048,
				FlashParams: flash.Params{PageSize: 2048, PagesPerBlock: 16, Blocks: 8192, ReserveBlocks: 4},
			})
			for _, sel := range sels {
				p := scanRouted(t, f.db, sel)
				res, err := f.db.Run(sel)
				if err != nil {
					t.Fatalf("%s: %v", sel, err)
				}
				if want := f.refAnswer(t, sel); !rowsEqual(res.Rows, want) {
					t.Fatalf("%s: %d rows, reference %d", sel, len(res.Rows), len(want))
				}
				got := opSample(res, spanScan).Flash.Add(opSample(res, spanMerge).Flash)
				io := f.db.scanIO(p.Table, p.ColIdx, float64(len(res.Rows)), 2048)
				want := flash.Counters{PageReads: uint64(io.reads), PageWrites: uint64(io.writes), BytesToRAM: uint64(io.bytes)}
				if got != want {
					t.Fatalf("%s: Scan + Merge moved %+v, scanIO prices %+v", sel, got, want)
				}
			}
		})
	}
}

// TestScanHiddenTwins: two engines loaded alike but for the scanned
// column's hidden values, each on the same side of the predicate in both,
// run the same Scan-routed SELECT, before and after the same UPDATE
// leaves live upserts whose images the Scan reads from the overlay. The
// Scan stage's flash samples are identical: which bytes move depends on
// the column's width, never on its values.
func TestScanHiddenTwins(t *testing.T) {
	const sel = "SELECT T0.id, T0.v1 FROM T0 WHERE T0.h2 BETWEEN '0000000200' AND '0000000599'"
	const upd = "UPDATE T0 SET h1 = '0000000007' WHERE T0.h3 < '0000000150'"
	twin := func(remap func(table, col string, v int) int) [2]metrics.Sample {
		f := newFixtureMapped(t, 97, synthDefs(), writesCards(), Options{
			FlashParams: flash.Params{PageSize: 2048, PagesPerBlock: 16, Blocks: 8192, ReserveBlocks: 4},
		}, remap)
		var out [2]metrics.Sample
		for i := range out {
			if i == 1 {
				f.applyDML(t, upd)
			}
			scanRouted(t, f.db, sel)
			res, err := f.db.Run(sel)
			if err != nil {
				t.Fatal(err)
			}
			if want := f.refAnswer(t, sel); !rowsEqual(res.Rows, want) {
				t.Fatalf("%s: %d rows, reference %d", sel, len(res.Rows), len(want))
			}
			if !hasOp(res, spanScan) {
				t.Fatalf("%s ran %v, want the Scan stage", sel, res.Stats.Ops)
			}
			out[i] = opSample(res, spanScan)
		}
		return out
	}
	a := twin(nil)
	b := twin(func(table, col string, v int) int {
		if table != "T0" || col != "h2" {
			return v
		}
		switch {
		case v < 200:
			return v + 800
		case v >= 600:
			return (v - 600) % 200
		}
		return 799 - v
	})
	if a != b {
		t.Fatalf("the Scan stage's samples differ across the twins:\n%+v\n%+v", a, b)
	}
}

// TestScanPoisonedPages: every page lent from the token's pool is
// filled with 0xFF before its stage uses it, so a stage that read bytes
// it never transferred (the rest of a row around the scanned column)
// would see garbage. Random queries, anchor-routed ones included, and
// random UPDATE/DELETE statements at 7 and 32 buffers still answer as
// internal/ref does, and the Scan stage runs.
func TestScanPoisonedPages(t *testing.T) {
	lendHook = func(_ *queryRun, buf []byte) {
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
			rng := rand.New(rand.NewSource(int64(83 + buffers)))
			scans := 0
			for i := 0; i < 60; i++ {
				if i%3 == 2 {
					f.applyDML(t, randomDML(rng, cards))
					continue
				}
				sql := randomQuery(rng)
				if i%2 == 0 {
					sql = anchorRouteQuery(rng)
				}
				res, err := f.db.Run(sql)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				if want := f.refAnswer(t, sql); !rowsEqual(res.Rows, want) {
					t.Fatalf("%s: %d rows, reference %d", sql, len(res.Rows), len(want))
				}
				if hasOp(res, spanScan) {
					scans++
				}
			}
			if scans == 0 {
				t.Fatal("no query ran the Scan stage")
			}
		})
	}
}
