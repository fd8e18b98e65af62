package exec

import (
	"context"
	"errors"
	"testing"

	"ghostdb/internal/flash"
	"ghostdb/internal/ram"
)

// minViableBuffers is the smallest whole-buffer budget at which every
// query in the representative mix below is guaranteed to complete: the
// 5-table QEPSJ pipeline reserves up to 6 buffers (anchor writer + 4
// column writers + SKT reader) and the merge reduction needs 1 more to
// make progress on what remains. Below it, operators may fail — but only
// with errors wrapping ram.ErrExhausted, never with a wrong answer or a
// leaked grant.
const minViableBuffers = 7

// sweepFixture builds the sweep fixture at one budget.
func sweepFixture(t testing.TB, buffers int) *fixture {
	return newFixtureOpts(t, 77, map[string]int{"T0": 1200, "T1": 150, "T2": 120, "T11": 40, "T12": 40},
		Options{
			RAMBudget:   buffers * 2048,
			FlashParams: flash.Params{PageSize: 2048, PagesPerBlock: 16, Blocks: 8192, ReserveBlocks: 4},
		})
}

// TestRAMBudgetSweep runs the representative query mix at every
// whole-buffer budget from the paper's default (32 buffers) down to the
// minimum viable count, asserting the answer matches the reference
// engine at every step and that no grant leaks — graceful multi-pass
// degradation, not failure, is the contract (§3.4, Figure 11).
func TestRAMBudgetSweep(t *testing.T) {
	defaultBuffers := ram.DefaultBudget / 2048
	for buffers := defaultBuffers; buffers >= minViableBuffers; buffers-- {
		f := sweepFixture(t, buffers)
		for _, sql := range testQueries {
			want := f.refAnswer(t, sql)
			res, err := f.db.Run(sql)
			if err != nil {
				t.Fatalf("%d buffers: %s: %v", buffers, sql, err)
			}
			if !rowsEqual(res.Rows, want) {
				t.Fatalf("%d buffers: %s: %d rows, want %d", buffers, sql, len(res.Rows), len(want))
			}
			if f.db.RAM.Leaked() {
				t.Fatalf("%d buffers: %s: grants leaked", buffers, sql)
			}
			if f.db.RAM.HighWater() > f.db.RAM.Budget() {
				t.Fatalf("%d buffers: %s: budget exceeded (high water %d)", buffers, sql, f.db.RAM.HighWater())
			}
		}
	}
}

// TestRAMBudgetSweepForcedStrategies repeats the sweep at a tight budget
// with every strategy/projector combination forced: no operator may
// return a RAM-exhaustion error while its documented minimum is free,
// and Post-Select in particular must degrade to more re-scan passes.
func TestRAMBudgetSweepForcedStrategies(t *testing.T) {
	strategies := []Strategy{StratAuto, StratPre, StratCrossPre, StratPost,
		StratCrossPost, StratPostSelect, StratCrossPostSelect, StratNoFilter}
	projectors := []Projector{ProjectBloom, ProjectNoBF, ProjectBruteForce}
	for _, buffers := range []int{32, 16, 10, minViableBuffers} {
		f := sweepFixture(t, buffers)
		for _, sql := range testQueries {
			want := f.refAnswer(t, sql)
			for _, s := range strategies {
				for _, pj := range projectors {
					res, err := f.db.RunCtx(context.Background(), sql, QueryConfig{Strategy: s, Projector: pj})
					if err != nil {
						if errors.Is(err, ErrBloomInfeasible) {
							continue // the paper stops Post curves there too
						}
						t.Fatalf("%d buffers [%v/%v] %s: %v", buffers, s, pj, sql, err)
					}
					if !rowsEqual(res.Rows, want) {
						t.Fatalf("%d buffers [%v/%v] %s: %d rows, want %d",
							buffers, s, pj, sql, len(res.Rows), len(want))
					}
					if f.db.RAM.Leaked() {
						t.Fatalf("%d buffers [%v/%v] %s: grants leaked", buffers, s, pj, sql)
					}
				}
			}
		}
	}
}

// TestRAMBudgetBelowMinimumFailsCleanly drives the mix at budgets below
// the viable minimum: queries are allowed to fail, but only with an
// error wrapping ram.ErrExhausted (or ErrBloomInfeasible), never with a
// wrong answer, a leaked grant, or a budget overrun. This is the test
// that catches grant leaks on operator error paths.
func TestRAMBudgetBelowMinimumFailsCleanly(t *testing.T) {
	for buffers := minViableBuffers - 1; buffers >= 2; buffers-- {
		f := sweepFixture(t, buffers)
		answered := 0
		for _, sql := range testQueries {
			want := f.refAnswer(t, sql)
			res, err := f.db.Run(sql)
			if err != nil {
				if !errors.Is(err, ram.ErrExhausted) && !errors.Is(err, ErrBloomInfeasible) {
					t.Fatalf("%d buffers: %s: unexpected failure kind: %v", buffers, sql, err)
				}
			} else {
				answered++
				if !rowsEqual(res.Rows, want) {
					t.Fatalf("%d buffers: %s: wrong answer under pressure", buffers, sql)
				}
			}
			if f.db.RAM.Leaked() {
				t.Fatalf("%d buffers: %s: grants leaked (err=%v)", buffers, sql, err)
			}
			if f.db.RAM.HighWater() > f.db.RAM.Budget() {
				t.Fatalf("%d buffers: %s: budget exceeded", buffers, sql)
			}
		}
		// Even at 2 buffers the visible-only fast path must still answer.
		if answered == 0 {
			t.Fatalf("%d buffers: nothing answered at all", buffers)
		}
	}
}
