package ghostdb

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§6), plus the three ablations. Each benchmark
// regenerates its figure through internal/experiments and reports the
// figure's total *simulated* time (flash I/O + link transfer under the
// Table 1 cost model) as sim-ms/op, so results are machine-independent.
//
// The scale factor defaults to a laptop-friendly 0.005 (the paper's scale
// is 1.0); raise it with:
//
//	GHOSTDB_BENCH_SCALE=0.05 go test -bench=. -benchmem
//
// cmd/ghostdb-bench prints the full series point by point.

import (
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"ghostdb/internal/experiments"
)

var (
	labOnce sync.Once
	lab     *experiments.Lab
)

func benchLab(b *testing.B) *experiments.Lab {
	b.Helper()
	labOnce.Do(func() {
		sf := 0.005
		if env := os.Getenv("GHOSTDB_BENCH_SCALE"); env != "" {
			if v, err := strconv.ParseFloat(env, 64); err == nil && v > 0 {
				sf = v
			}
		}
		lab = experiments.NewLab(sf, 1)
	})
	return lab
}

// reportFigure aggregates the simulated time over all non-skipped points.
func reportFigure(b *testing.B, fig *experiments.Figure) {
	var total time.Duration
	n := 0
	for _, p := range fig.Points {
		if !p.Skipped {
			total += p.Time
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(float64(total.Milliseconds()), "sim-ms/op")
		b.ReportMetric(float64(n), "points/op")
	}
}

func runFigure(b *testing.B, f func() (*experiments.Figure, error)) {
	l := benchLab(b)
	_ = l
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := f()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFigure(b, fig)
		}
	}
}

// BenchmarkTable1Parameters verifies the cost-model constants render.
func BenchmarkTable1Parameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table1()) < 5 {
			b.Fatal("table 1 incomplete")
		}
	}
}

// BenchmarkFig7IndexStorage regenerates the index storage comparison
// (FullIndex / BasicIndex / StarIndex / JoinIndex vs DBSize).
func BenchmarkFig7IndexStorage(b *testing.B) {
	l := benchLab(b)
	runFigure(b, l.Fig7)
}

// BenchmarkFig8CrossFiltering regenerates the Pre/Cross-Pre and
// Post/Cross-Post comparison over the sV sweep.
func BenchmarkFig8CrossFiltering(b *testing.B) {
	l := benchLab(b)
	runFigure(b, l.Fig8)
}

// BenchmarkFig9CrossPreVsPost regenerates the Cross-Pre vs Cross-Post
// crossover (≈ sV = 0.1).
func BenchmarkFig9CrossPreVsPost(b *testing.B) {
	l := benchLab(b)
	runFigure(b, l.Fig9)
}

// BenchmarkFig10PreVsPost regenerates the no-Cross comparison, where the
// Post-Filter curve stops at sV = 0.5.
func BenchmarkFig10PreVsPost(b *testing.B) {
	l := benchLab(b)
	runFigure(b, l.Fig10)
}

// BenchmarkFig11PostAlternatives regenerates the Bloom vs exact
// Post-Select comparison.
func BenchmarkFig11PostAlternatives(b *testing.B) {
	l := benchLab(b)
	runFigure(b, l.Fig11)
}

// BenchmarkFig12ProjectionPre regenerates the projector comparison under
// a Cross-Pre QEPSJ.
func BenchmarkFig12ProjectionPre(b *testing.B) {
	l := benchLab(b)
	runFigure(b, l.Fig12)
}

// BenchmarkFig13ProjectionPost regenerates the projector comparison under
// a Cross-Post QEPSJ (Bloom false positives present).
func BenchmarkFig13ProjectionPost(b *testing.B) {
	l := benchLab(b)
	runFigure(b, l.Fig13)
}

// BenchmarkFig14Throughput regenerates the communication sweep
// (0.3–10 MBps, 1–3 projected attributes).
func BenchmarkFig14Throughput(b *testing.B) {
	l := benchLab(b)
	runFigure(b, l.Fig14)
}

// BenchmarkFig15CostBreakdownSynthetic regenerates the per-operator
// decomposition on the synthetic dataset.
func BenchmarkFig15CostBreakdownSynthetic(b *testing.B) {
	l := benchLab(b)
	runFigure(b, l.Fig15)
}

// BenchmarkFig16CostBreakdownMedical regenerates the per-operator
// decomposition on the medical dataset (SJoin dominates).
func BenchmarkFig16CostBreakdownMedical(b *testing.B) {
	l := benchLab(b)
	runFigure(b, l.Fig16)
}

// BenchmarkAblationMergeReduction measures the Merge reduction phase as
// the secure RAM shrinks from 128KB to 16KB.
func BenchmarkAblationMergeReduction(b *testing.B) {
	l := benchLab(b)
	runFigure(b, l.AblationMergeReduction)
}

// BenchmarkAblationBloomRatio measures Bloom accuracy degradation from
// m/n = 10 down to 2.
func BenchmarkAblationBloomRatio(b *testing.B) {
	l := benchLab(b)
	runFigure(b, l.AblationBloomRatio)
}

// BenchmarkAblationClimbingVsCascade measures the climbing index against
// cascading per-level lookups (§3.2's motivation).
func BenchmarkAblationClimbingVsCascade(b *testing.B) {
	l := benchLab(b)
	runFigure(b, l.AblationClimbingVsCascade)
}
