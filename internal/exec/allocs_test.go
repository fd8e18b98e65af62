package exec_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"ghostdb/internal/datagen"
	"ghostdb/internal/exec"
	"ghostdb/internal/experiments"
	"ghostdb/internal/schema"
)

// The output half of the pipeline allocates per statement, not per
// result tuple: rows and char values are carved from one arena per
// result (rowarena.go). These tests live in the external test package
// because the synthetic generator imports exec.

// synthDB loads Synthetic(0.002) into a fresh engine with both caches
// off, so every statement executes, and the given secure RAM budget (0
// for the paper's 64 KB).
func synthDB(tb testing.TB, ramBudget int) *exec.DB {
	tb.Helper()
	ds, err := datagen.Synthetic(0.002, 1)
	if err != nil {
		tb.Fatal(err)
	}
	db, err := ds.NewDB(exec.Options{RAMBudget: ramBudget, CompactThreshold: -1, BusAuditEntries: -1})
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// rowProducers lists one statement shape per row producer: the final
// join of the Project algorithm, the brute-force projector, and the
// visible-only path that never reaches the token's operators.
var rowProducers = []struct {
	name string
	sql  func(sv float64) string
	cfg  exec.QueryConfig
}{
	{"finalJoin/Cross-Pre", func(sv float64) string { return experiments.SynthQ(sv, 2, true) },
		exec.QueryConfig{Strategy: exec.StratCrossPre}},
	{"bruteForce/Cross-Pre", func(sv float64) string { return experiments.SynthQ(sv, 2, true) },
		exec.QueryConfig{Strategy: exec.StratCrossPre, Projector: exec.ProjectBruteForce}},
	{"visibleOnly", func(sv float64) string {
		return fmt.Sprintf("SELECT id, v1, v2 FROM T1 WHERE v1 < '%s'", datagen.SelValue(sv))
	}, exec.QueryConfig{}},
}

// TestSelectAllocsIndependentOfRows runs each producer at sV 0.1 and
// 1.0 and bounds the extra mallocs by the extra rows. The grant (512
// buffers) lets the Merge open every sublist of the sV 1.0 climb at
// once: under the paper's 32 buffers it first unions them in reduction
// passes, whose number grows with the sublists, not with the output this
// test is about, and each still takes its RAM grants (a few mallocs per
// pass, which TestReductionAllocsPerPass bounds).
func TestSelectAllocsIndependentOfRows(t *testing.T) {
	db := synthDB(t, 512*2048)
	ctx := context.Background()
	for _, p := range rowProducers {
		t.Run(p.name, func(t *testing.T) {
			measure := func(sv float64) (allocs float64, rows int) {
				sql := p.sql(sv)
				allocs = testing.AllocsPerRun(5, func() {
					res, err := db.RunCtx(ctx, sql, p.cfg)
					if err != nil {
						t.Fatal(err)
					}
					rows = len(res.Rows)
				})
				return allocs, rows
			}
			lowA, lowN := measure(0.1)
			highA, highN := measure(1.0)
			t.Logf("sV 0.1: %d rows, %.0f mallocs; sV 1.0: %d rows, %.0f mallocs", lowN, lowA, highN, highA)
			if highN-lowN < 500 {
				t.Fatalf("only %d extra rows between sV 0.1 and 1.0: the comparison needs a real spread", highN-lowN)
			}
			if extra, limit := highA-lowA, float64(highN-lowN)/50; extra >= limit {
				t.Fatalf("%.0f extra mallocs for %d extra rows (limit %.0f: under 1 per 50 rows)", extra, highN-lowN, limit)
			}
		})
	}
}

// TestReductionAllocsPerPass runs Pre-Filter on Q-no-cross at sV 1.0,
// whose climb yields more sublists than the paper's 32 buffers can open:
// the Merge first unions the smallest in reduction passes, each spilling
// at least one flash page. At 512 buffers no pass runs. The passes reuse
// the token's page buffers and the run's reduction scratch, so the extra
// mallocs stay under 4 per extra page written — the ram grants a pass
// takes are two of them.
func TestReductionAllocsPerPass(t *testing.T) {
	ctx := context.Background()
	sql := experiments.SynthQNoCross(1.0)
	cfg := exec.QueryConfig{Strategy: exec.StratPre}
	measure := func(buffers int) (allocs float64, writes uint64) {
		db := synthDB(t, buffers*2048)
		var reads uint64
		allocs = testing.AllocsPerRun(5, func() {
			res, err := db.RunCtx(ctx, sql, cfg)
			if err != nil {
				t.Fatal(err)
			}
			reads, writes = res.Stats.Flash.PageReads, res.Stats.Flash.PageWrites
		})
		t.Logf("%d buffers: %.0f mallocs, %d page reads, %d page writes", buffers, allocs, reads, writes)
		return allocs, writes
	}
	tightA, tightW := measure(32)
	wideA, wideW := measure(512)
	if tightW <= wideW {
		t.Fatalf("%d page writes at 32 buffers, %d at 512: no reduction pass ran", tightW, wideW)
	}
	if extra, limit := tightA-wideA, 4*float64(tightW-wideW); extra >= limit {
		t.Fatalf("%.0f extra mallocs for %d extra page writes (limit %.0f)", extra, tightW-wideW, limit)
	}
}

// BenchmarkPaperQStatement times one statement of the benchmark's paperq
// round at the paper's 64 KB grant, with allocations reported: query Q
// under the planner's strategy at three points of the sV grid, and
// Pre-Filter on Q-no-cross at sV 1.0, whose Merge runs the sublist
// reduction's spill passes:
//
//	go test -run '^$' -bench PaperQStatement ./internal/exec
func BenchmarkPaperQStatement(b *testing.B) {
	db := synthDB(b, 0)
	type point struct {
		name string
		sql  string
		cfg  exec.QueryConfig
	}
	var points []point
	for _, sv := range []float64{0.01, 0.1, 1.0} {
		points = append(points, point{fmt.Sprintf("sV=%g", sv), experiments.SynthQ(sv, 2, true), exec.QueryConfig{}})
	}
	points = append(points, point{"noCross/Pre/sV=1", experiments.SynthQNoCross(1.0), exec.QueryConfig{Strategy: exec.StratPre}})
	for _, p := range points {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := db.RunCtx(context.Background(), p.sql, p.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSizeBytesCoversDroppedRows: a Post-Filter pass drops most of the
// rows its bound allowed for, yet the result keeps the arena sized from
// that bound alive, so SizeBytes must count it. The heap the rows retain
// is measured over several results held at once; the 7/8 allows for Go
// rounding each allocation up to its size class.
func TestSizeBytesCoversDroppedRows(t *testing.T) {
	db := synthDB(t, 0)
	ctx := context.Background()
	sql := experiments.SynthQNoCross(0.01)
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the second cycle frees what sync.Pool victim caches held
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	exact, err := db.RunCtx(ctx, sql, exec.QueryConfig{Strategy: exec.StratPre})
	if err != nil {
		t.Fatal(err)
	}
	const copies = 20
	held := make([][]schema.Row, copies)
	var size int64
	for i := range held {
		res, err := db.RunCtx(ctx, sql, exec.QueryConfig{Strategy: exec.StratPost})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(exact.Rows) {
			t.Fatalf("Post-Filter: %d rows, Pre-Filter: %d", len(res.Rows), len(exact.Rows))
		}
		held[i], size = res.Rows, res.SizeBytes()
	}
	with := heap()
	runtime.KeepAlive(held)
	retained := (with - heap()) / copies
	t.Logf("%d rows: SizeBytes %d (Pre-Filter %d), rows retain %d bytes", len(exact.Rows), size, exact.SizeBytes(), retained)
	if size < retained*7/8 {
		t.Fatalf("SizeBytes %d, but the rows retain %d bytes", size, retained)
	}
}
