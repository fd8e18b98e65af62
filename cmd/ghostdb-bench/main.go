// Command ghostdb-bench regenerates the tables and figures of the GhostDB
// paper's evaluation (§6) at a configurable scale factor, printing the
// same series the paper plots.
//
// Usage:
//
//	ghostdb-bench -exp all                 # every table and figure
//	ghostdb-bench -exp fig8 -scale 0.02    # one figure, larger scale
//	ghostdb-bench -exp ablations           # the DESIGN.md ablations
//	ghostdb-bench -exp concurrency         # scheduler sweep -> BENCH_concurrency.json
//	ghostdb-bench -exp planner             # plan-sized vs fixed-floor admission -> BENCH_planner.json
//	ghostdb-bench -exp cache               # result cache: cold vs Zipf -> BENCH_cache.json
//	ghostdb-bench -exp pagecache           # page cache: Zipf with/without -> BENCH_pagecache.json
//	ghostdb-bench -exp sharding            # 1/2/4 secure tokens -> BENCH_sharding.json
//	ghostdb-bench -exp dml                 # OLTP write window vs read-only baseline -> BENCH_dml.json
//	ghostdb-bench -exp slo                 # open-loop rate search under the SLO -> BENCH_slo.json
//	ghostdb-bench -exp slo-gate -in BENCH_slo.json -baseline BENCH_slo_baseline.json
//	                                       # CI perf gate: fail on sustainable-rate regression
//	ghostdb-bench -exp fig10 -cpuprofile cpu.pprof -memprofile mem.pprof
//	                                       # profile any experiment (go tool pprof -top cpu.pprof)
//
// The paper's full scale (10M-tuple root table) is -scale 1.0; the
// default keeps laptop runtimes pleasant. Reported times are simulated
// (flash I/O + link transfer under the Table 1 cost model), so they are
// comparable across machines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"ghostdb/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, table1, fig7..fig16, ablations, concurrency, planner, cache, pagecache, sharding, dml, slo, slo-gate")
	scale := flag.Float64("scale", 0.01, "scale factor (paper = 1.0)")
	seed := flag.Int64("seed", 1, "dataset seed")
	queries := flag.Int("queries", 60, "queries per level in the concurrency/planner sweeps")
	out := flag.String("out", "", "output path for sweep reports (default BENCH_<exp>.json)")
	in := flag.String("in", "BENCH_slo.json", "slo-gate: freshly measured report")
	baseline := flag.String("baseline", "BENCH_slo_baseline.json", "slo-gate: committed baseline report")
	tolerance := flag.Float64("tolerance", 0.10, "slo-gate: allowed relative drop in max sustainable qps")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file when the experiment ends")
	flag.Parse()

	stop, err := startProfiles(*cpuProfile, *memProfile)
	if err == nil {
		err = dispatch(experiments.NewLab(*scale, *seed), strings.ToLower(*exp), *queries, *out, *in, *baseline, *tolerance)
		if perr := stop(); err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ghostdb-bench:", err)
		os.Exit(1)
	}
}

// startProfiles starts the CPU profile and returns the function that
// stops it and writes the allocation profile; either path may be empty.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // so the profile holds every allocation up to here
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// dispatch runs one experiment: a sweep writing BENCH_<name>.json (or
// out), the SLO gate, or a table/figure of the paper.
func dispatch(lab *experiments.Lab, name string, queries int, out, in, baseline string, tolerance float64) error {
	sweeps := map[string]func(path string) error{
		"concurrency": func(p string) error { return runConcurrency(lab, queries, p) },
		"planner":     func(p string) error { return runPlanner(lab, queries, p) },
		"cache":       func(p string) error { return runCache(lab, queries, p) },
		"pagecache":   func(p string) error { return runPagecache(lab, queries, p) },
		"sharding":    func(p string) error { return runSharding(lab, queries, p) },
		"dml":         func(p string) error { return runDML(lab, queries, p) },
		"slo":         func(p string) error { return runSLO(lab, p) },
	}
	if sweep, ok := sweeps[name]; ok {
		if out == "" {
			out = "BENCH_" + name + ".json"
		}
		return sweep(out)
	}
	if name == "slo-gate" {
		return runSLOGate(in, baseline, tolerance)
	}
	return run(lab, name)
}

// runPlanner compares plan-sized admission against the pre-planner fixed
// 8-buffer floor at 1/4/16 sessions and writes the machine-readable
// report.
func runPlanner(lab *experiments.Lab, queries int, out string) error {
	rep, err := lab.PlannerSweep([]int{1, 4, 16}, queries)
	if err != nil {
		return err
	}
	fmt.Printf("== planner: plan-sized vs fixed-floor admission, %d queries per cell (scale %g, %dB secure RAM) ==\n",
		queries, rep.Scale, rep.RAMBudgetBytes)
	fmt.Printf("  %-12s %-12s %10s %12s %12s %12s %14s\n",
		"sessions", "mode", "wall-qps", "sim-p50", "sim-p95", "max-running", "floors-seen")
	for _, p := range rep.Levels {
		fmt.Printf("  %-12d %-12s %10.1f %10.2fms %10.2fms %12d %7d..%d\n",
			p.Concurrency, p.Mode, p.WallQPS, p.SimP50Ms, p.SimP95Ms, p.MaxRunning, p.MinFloorSeen, p.MaxFloorSeen)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  report written to %s\n", out)
	return nil
}

// runCache compares the cold (all-distinct) and Zipf (repeated)
// workloads through the result cache at 1/4/16 sessions and writes the
// machine-readable report. It fails loudly if the Zipf workload is not
// strictly faster than cold, or if any cache hit performed secure-token
// traffic — those are the cache's two contract points.
func runCache(lab *experiments.Lab, queries int, out string) error {
	rep, err := lab.CacheSweep([]int{1, 4, 16}, queries)
	if err != nil {
		return err
	}
	fmt.Printf("== cache: cold vs Zipf-repeated workload, %d queries per cell (scale %g, %dB secure RAM, %dB cache) ==\n",
		queries, rep.Scale, rep.RAMBudgetBytes, rep.CacheCapacityBytes)
	fmt.Printf("  %-10s %-6s %9s %10s %10s %10s %8s %8s %9s\n",
		"sessions", "mode", "distinct", "wall-qps", "sim-p50", "sim-p95", "hits", "shared", "executed")
	for _, p := range rep.Levels {
		fmt.Printf("  %-10d %-6s %9d %10.1f %8.2fms %8.2fms %8d %8d %9d\n",
			p.Concurrency, p.Mode, p.DistinctQueries, p.WallQPS, p.SimP50Ms, p.SimP95Ms,
			p.CacheHits, p.CacheShared, p.Executed)
	}
	fmt.Printf("  zipf strictly faster than cold at every level: %v\n", rep.ZipfSpeedupOK)
	fmt.Printf("  cache hits performed zero token bus/flash traffic: %v\n", rep.HitTrafficZero)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  report written to %s\n", out)
	if !rep.HitTrafficZero {
		return fmt.Errorf("cache contract violated: hits performed secure-token traffic")
	}
	if !rep.ZipfSpeedupOK {
		return fmt.Errorf("cache contract violated: zipf workload not faster than cold")
	}
	return nil
}

// runPagecache compares the cache-off and cache-on arms on the Zipf
// mixed workload and writes the machine-readable report. It fails
// loudly on any of PR 10's contract points: the Down-byte saving floor,
// no-worse simulated latency, byte-identical uplink audit trails, and
// exact answers on both arms.
func runPagecache(lab *experiments.Lab, queries int, out string) error {
	rep, err := lab.PagecacheSweep(queries)
	if err != nil {
		return err
	}
	fmt.Printf("== pagecache: Zipf mixed workload, cache off vs on, %d queries per arm (scale %g, %dB secure RAM, %dB page cache) ==\n",
		queries, rep.Scale, rep.RAMBudgetBytes, rep.PageCacheBytes)
	fmt.Printf("  %-6s %10s %10s %10s %12s %12s %8s %10s %8s\n",
		"mode", "wall-qps", "sim-p50", "sim-total", "bus-down", "flash-reads", "pc-hits", "coalesced", "uplinks")
	for _, p := range []experiments.PagecachePoint{rep.Off, rep.On} {
		fmt.Printf("  %-6s %10.1f %8.2fms %8.2fms %11dB %12d %8d %10d %8d\n",
			p.Mode, p.WallQPS, p.SimP50Ms, p.SimTotalMs, p.BusDownBytes, p.FlashReads,
			p.PagecacheHits, p.BusCoalesced, p.UplinkRecords)
	}
	fmt.Printf("  down-byte drop: %.1f%% (floor %.0f%%): %v\n",
		rep.BusDownDropPct, experiments.MinBusDownDropPct, rep.BusSavingsOK)
	fmt.Printf("  simulated latency no worse (p50) and strictly lower (total): %v\n", rep.LatencyOK)
	fmt.Printf("  uplink audit trails byte-identical across arms: %v\n", rep.UplinkParityOK)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  report written to %s\n", out)
	if !rep.UplinkParityOK {
		return fmt.Errorf("pagecache contract violated: the cache changed the uplink audit trail")
	}
	if rep.Off.AnswerErrors != 0 || rep.On.AnswerErrors != 0 {
		return fmt.Errorf("pagecache contract violated: answers diverged from the fresh-engine baseline")
	}
	if !rep.BusSavingsOK {
		return fmt.Errorf("pagecache contract violated: Down-byte drop %.1f%% below the %.0f%% floor",
			rep.BusDownDropPct, experiments.MinBusDownDropPct)
	}
	if !rep.LatencyOK {
		return fmt.Errorf("pagecache contract violated: cache-on arm was not faster in simulated time")
	}
	if !rep.PrefetchQuiesced {
		return fmt.Errorf("pagecache contract violated: prefetch in-flight gauge nonzero after drain")
	}
	return nil
}

// runSharding sweeps the shard-local workload at 1/2/4 secure tokens ×
// 1/4/16 sessions and writes the machine-readable report. It fails
// loudly if 4 tokens are not strictly faster than 1 at 16 sessions, or
// if the per-shard Totals do not sum to the unsharded engine's byte
// counts — those are sharding's two contract points.
func runSharding(lab *experiments.Lab, queries int, out string) error {
	rep, err := lab.ShardingSweep([]int{1, 2, 4}, []int{1, 4, 16}, queries)
	if err != nil {
		return err
	}
	fmt.Printf("== sharding: shard-local workload over %d trees, %d queries per cell (scale %g, %dB secure RAM per token) ==\n",
		rep.Trees, queries, rep.Scale, rep.RAMBudgetBytes)
	fmt.Printf("  %-8s %-10s %10s %10s %10s %16s\n",
		"tokens", "sessions", "wall-qps", "sim-p50", "sim-p95", "per-shard-queries")
	for _, p := range rep.Levels {
		fmt.Printf("  %-8d %-10d %10.1f %8.2fms %8.2fms %16v\n",
			p.Tokens, p.Concurrency, p.WallQPS, p.SimP50Ms, p.SimP95Ms, p.PerShardQueries)
	}
	fmt.Printf("  4 tokens strictly faster than 1 at 16 sessions: %v\n", rep.ScalingOK)
	fmt.Printf("  per-shard totals sum to the unsharded byte counts: %v (flash ops %v, bus bytes %v)\n",
		rep.ParityOK, rep.ParityFlashOps, rep.ParityBusBytes)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  report written to %s\n", out)
	if !rep.ParityOK {
		return fmt.Errorf("sharding contract violated: per-shard totals diverge from the unsharded run")
	}
	if !rep.ScalingOK {
		return fmt.Errorf("sharding contract violated: 4 tokens not faster than 1 on the shard-local workload")
	}
	return nil
}

// runDML replays the OLTP write window: mixed reads and delta-store
// writes (with concurrent background compaction) against a write-free
// baseline at 1/4/16 sessions, and writes the machine-readable report.
func runDML(lab *experiments.Lab, queries int, out string) error {
	rep, err := lab.DMLSweep([]int{1, 4, 16}, queries)
	if err != nil {
		return err
	}
	fmt.Printf("== dml: write window (4 reads : 1 write) vs read-only baseline, %d reads per cell (scale %g, %dB secure RAM, compaction at %d delta pages) ==\n",
		queries, rep.Scale, rep.RAMBudgetBytes, rep.CompactThreshold)
	fmt.Printf("  %-10s %-10s %10s %10s %10s %10s %12s %12s\n",
		"sessions", "mode", "wall-qps", "sim-p50", "sim-p95", "peak-delta", "compactions", "answer-errs")
	for _, p := range rep.Levels {
		fmt.Printf("  %-10d %-10s %10.1f %8.2fms %8.2fms %9dp %12d %12d\n",
			p.Concurrency, p.Mode, p.WallQPS, p.SimP50Ms, p.SimP95Ms,
			p.PeakDeltaPages, p.Compactions, p.AnswerErrors)
	}
	fmt.Printf("  mixed qps >= 85%% of read-only at max sessions, exact answers: %v\n", rep.MixedOK)
	fmt.Printf("  no admission starvation: %v; compaction ran mid-window: %v\n",
		rep.StarvationOK, rep.CompactionRan)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  report written to %s\n", out)
	if !rep.MixedOK {
		return fmt.Errorf("dml contract violated: mixed write window fell below 85%% of the read-only baseline (or answers drifted)")
	}
	if !rep.StarvationOK {
		return fmt.Errorf("dml contract violated: admission starved under background compaction")
	}
	return nil
}

// runSLO runs the open-loop rate search and writes the machine-readable
// report the CI gate consumes. It fails loudly if the overload probe
// did not degrade gracefully — that is the tentpole contract: past
// capacity the engine sheds, it does not let admitted latency collapse.
func runSLO(lab *experiments.Lab, out string) error {
	rep, err := lab.SLOSweep()
	if err != nil {
		return err
	}
	fmt.Printf("== slo: open-loop Poisson arrivals, mixed matrix over %d tokens (scale %g, SLO %gms wall p99, shed bound %gms queue wait) ==\n",
		rep.Shards, rep.Scale, rep.SLOTargetMs, rep.MaxQueueWaitMs)
	fmt.Printf("  %-10s %9s %8s %6s %10s %10s %10s %10s %12s\n",
		"target-qps", "arrivals", "admitted", "shed", "wall-p50", "wall-p95", "wall-p99", "queue-p99", "sustainable")
	points := rep.Levels
	for _, p := range points {
		fmt.Printf("  %-10.0f %9d %8d %6d %8.2fms %8.2fms %8.2fms %8.2fms %12v\n",
			p.TargetQPS, p.Arrivals, p.Admitted, p.Shed,
			p.WallP50Ms, p.WallP95Ms, p.WallP99Ms, p.QueueP99Ms, p.Sustainable)
	}
	fmt.Printf("  max sustainable rate under the SLO: %.0f qps\n", rep.MaxSustainableQPS)
	if o := rep.Overload; o != nil {
		fmt.Printf("  overload probe at %.0f qps: shed %d/%d (%.1f%%), admitted wall-p99 %.2fms, graceful: %v\n",
			o.TargetQPS, o.Shed, o.Arrivals, 100*o.ShedFraction, o.WallP99Ms, rep.OverloadOK)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  report written to %s\n", out)
	if !rep.OverloadOK {
		return fmt.Errorf("slo contract violated: overload probe did not shed gracefully (sheds and admitted-p99 within SLO expected)")
	}
	return nil
}

// runSLOGate compares a fresh report against the committed baseline and
// fails (non-zero exit, so CI goes red) when the max sustainable rate
// regressed by more than the tolerance.
func runSLOGate(inPath, basePath string, tolerance float64) error {
	read := func(path string) (*experiments.SLOReport, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep experiments.SLOReport
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &rep, nil
	}
	cur, err := read(inPath)
	if err != nil {
		return err
	}
	base, err := read(basePath)
	if err != nil {
		return err
	}
	if base.MaxSustainableQPS <= 0 {
		return fmt.Errorf("slo-gate: baseline %s has no max_sustainable_qps", basePath)
	}
	floor := (1 - tolerance) * base.MaxSustainableQPS
	fmt.Printf("== slo-gate: measured %.0f qps vs baseline %.0f qps (floor %.0f, tolerance %.0f%%) ==\n",
		cur.MaxSustainableQPS, base.MaxSustainableQPS, floor, 100*tolerance)
	if !cur.OverloadOK {
		return fmt.Errorf("slo-gate: measured run failed the graceful-overload contract")
	}
	if cur.MaxSustainableQPS < floor {
		return fmt.Errorf("slo-gate: max sustainable rate regressed: %.0f qps < %.0f qps floor (baseline %.0f, tolerance %.0f%%)",
			cur.MaxSustainableQPS, floor, base.MaxSustainableQPS, 100*tolerance)
	}
	fmt.Println("  gate passed")
	return nil
}

// runConcurrency sweeps the admission scheduler at 1/4/16 concurrent
// sessions and writes the machine-readable report.
func runConcurrency(lab *experiments.Lab, queries int, out string) error {
	rep, err := lab.ConcurrencySweep([]int{1, 4, 16}, queries)
	if err != nil {
		return err
	}
	fmt.Printf("== concurrency: %d-query mixed workload per level (scale %g, %dB secure RAM) ==\n",
		queries, rep.Scale, rep.RAMBudgetBytes)
	fmt.Printf("  %-12s %8s %12s %12s %12s %12s\n",
		"sessions", "grant", "wall-qps", "sim-p50", "sim-p95", "max-running")
	for _, p := range rep.Levels {
		fmt.Printf("  %-12d %7db %12.1f %10.2fms %10.2fms %12d\n",
			p.Concurrency, p.GrantBuffers, p.WallQPS, p.SimP50Ms, p.SimP95Ms, p.MaxRunning)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  report written to %s\n", out)
	return nil
}

func run(lab *experiments.Lab, exp string) error {
	type entry struct {
		name string
		f    func() (*experiments.Figure, error)
	}
	figures := []entry{
		{"fig7", lab.Fig7}, {"fig8", lab.Fig8}, {"fig9", lab.Fig9},
		{"fig10", lab.Fig10}, {"fig11", lab.Fig11}, {"fig12", lab.Fig12},
		{"fig13", lab.Fig13}, {"fig14", lab.Fig14}, {"fig15", lab.Fig15},
		{"fig16", lab.Fig16},
	}
	ablations := []entry{
		{"ablation-merge", lab.AblationMergeReduction},
		{"ablation-bloom", lab.AblationBloomRatio},
		{"ablation-climb", lab.AblationClimbingVsCascade},
	}

	if exp == "table1" || exp == "all" {
		fmt.Println("== Table 1: Main performance parameters of USB keys ==")
		for _, line := range experiments.Table1() {
			fmt.Println("  " + line)
		}
		fmt.Println()
		if exp == "table1" {
			return nil
		}
	}
	var todo []entry
	switch exp {
	case "all":
		todo = append(figures, ablations...)
	case "ablations":
		todo = ablations
	default:
		for _, e := range append(figures, ablations...) {
			if e.name == exp {
				todo = []entry{e}
			}
		}
		if todo == nil {
			return fmt.Errorf("unknown experiment %q", exp)
		}
	}
	for _, e := range todo {
		fig, err := e.f()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		printFigure(fig)
	}
	return nil
}

func printFigure(fig *experiments.Figure) {
	fmt.Printf("== %s: %s ==\n", fig.Name, fig.Title)
	fmt.Printf("   x-axis: %s\n", fig.XLabel)
	if fig.Name == "fig7" {
		printFig7(fig)
		fmt.Println()
		return
	}
	if fig.Name == "fig15" || fig.Name == "fig16" {
		printBars(fig)
		fmt.Println()
		return
	}
	// Group points by series, ordered by first appearance.
	series := map[string][]experiments.Point{}
	var order []string
	for _, p := range fig.Points {
		if _, ok := series[p.Series]; !ok {
			order = append(order, p.Series)
		}
		series[p.Series] = append(series[p.Series], p)
	}
	sort.Strings(order)
	for _, s := range order {
		fmt.Printf("  %-22s", s)
		pts := series[s]
		sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
		for _, p := range pts {
			if p.Skipped {
				fmt.Printf("  %8s", "-")
				continue
			}
			fmt.Printf("  %8.2fms", float64(p.Time.Microseconds())/1000)
		}
		fmt.Println()
	}
	fmt.Printf("  %-22s", "x =")
	pts := series[order[0]]
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	for _, p := range pts {
		fmt.Printf("  %10.3f", p.X)
	}
	fmt.Println()
	fmt.Println()
}

func printFig7(fig *experiments.Figure) {
	bySeries := map[string]map[float64]float64{}
	var ks []float64
	seen := map[float64]bool{}
	for _, p := range fig.Points {
		if bySeries[p.Series] == nil {
			bySeries[p.Series] = map[float64]float64{}
		}
		bySeries[p.Series][p.X] = experiments.SizeMB(p)
		if p.X >= 0 && !seen[p.X] {
			seen[p.X] = true
			ks = append(ks, p.X)
		}
	}
	sort.Float64s(ks)
	fmt.Printf("  %-14s", "k")
	for _, k := range ks {
		fmt.Printf("  %8.0f", k)
	}
	fmt.Println()
	for _, s := range []string{"FullIndex", "BasicIndex", "StarIndex", "JoinIndex", "DBSize"} {
		fmt.Printf("  %-14s", s)
		for _, k := range ks {
			fmt.Printf("  %6.1fMB", bySeries[s][k])
		}
		fmt.Println()
	}
	fmt.Println("  medical dataset (all hidden attrs indexed):")
	for _, s := range []string{"medical-FullIndex", "medical-BasicIndex", "medical-StarIndex", "medical-JoinIndex", "medical-DBSize"} {
		fmt.Printf("    %-26s %6.1fMB\n", s, bySeries[s][-1])
	}
}

func printBars(fig *experiments.Figure) {
	comps := []string{"Merge", "SJoin", "Store", "Project"}
	fmt.Printf("  %-8s", "case")
	for _, c := range comps {
		fmt.Printf("  %10s", c)
	}
	fmt.Printf("  %10s\n", "total-IO")
	for _, p := range fig.Points {
		if p.Skipped {
			fmt.Printf("  %-8s  skipped: %s\n", p.Series, p.Note)
			continue
		}
		fmt.Printf("  %-8s", p.Series)
		for _, c := range comps {
			fmt.Printf("  %8.2fms", float64(p.Breakdown[c].Microseconds())/1000)
		}
		fmt.Printf("  %8.2fms\n", float64(p.IOTime.Microseconds())/1000)
	}
}
