package main

import "regexp"

// This file is the benchmark's vocabulary: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics with the end-to-end metric each is expected to move. It is
// the single source BENCHMARK.json is checked against (bench_test.go),
// so a metric cannot be printed without being declared here.

// metricDef declares one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline by which it may worsen
	// Moves says which end-to-end metric, on which workload, a change
	// in this per-layer metric is expected to move (README table).
	Moves string
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
	run  func(runConfig) (*report, error)
}

// nameRE is the alphabet every metric and workload name must fit.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// workloads are the benchmark's four, in the order they run.
var workloads = []workloadDef{
	{Name: "paperq", run: runPaperQ,
		Why: "the paper's query Q family over the sV grid under forced strategies: operators, indexes, store and flash do the work, front end and caches none"},
	{Name: "oltp-server", run: runOLTPServer,
		Why: "short Zipf-skewed statements over the TCP line protocol with both caches smaller than the working set: front end, caches and server have their largest share here"},
	{Name: "write-mix", run: runWriteMix,
		Why: "reads beside INSERT/UPDATE/DELETE with explicit compaction on one token: a read-path gain that costs writes, space or GC shows only here"},
	{Name: "open-mix", run: runOpenMix,
		Why: "open-loop Poisson arrivals at 600/1200/1800 per second on a paced two-token engine: the only workload with queueing, shedding and scatter legs"},
}

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them (what each means on the open-loop workload
// is spelled out in README.md). A bound is three times the widest
// spread (interquartile range over the median, ten seeds) the metric
// showed on any workload on the reference host, capped at the driver's
// 0.25; README.md has the table.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "goodput_qps", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "sim_ms_per_stmt", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "cpu_ms_per_stmt", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "alloc_kb_per_stmt", Unit: "KB", Better: "lower", Bound: 0.15},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "storage_amp", Unit: "ratio", Better: "lower", Bound: 0.20},
}

// Operator cost spans the engine's collector reports (exec/qepsj.go,
// exec/dml.go, exec/obs.go) plus the unattributed remainder.
var execOperators = []string{"Vis", "CI", "Merge", "SJoin", "BF", "Store", "Project",
	"PostSelect", "Scan", "Delta", "Bus", "DML", "Compact", "other"}

// Host phases the engine's trace records per statement.
var execPhases = []string{"parse", "resolve", "plan", "cache", "admission", "exec", "scatter", "merge"}

const (
	movesSim     = "sim_ms_per_stmt on paperq/write-mix, goodput_qps on open-mix"
	movesHostQ   = "goodput_qps, p50_ms, cpu_ms_per_stmt on paperq"
	movesHostO   = "goodput_qps, p50_ms on oltp-server"
	movesHostW   = "goodput_qps, p99_ms on write-mix"
	movesOpen    = "p99_ms, goodput_qps on open-mix"
	movesStorage = "storage_amp"
)

// perLayer lists the single-layer metrics of the traced run, grouped by
// module. Counters are means per statement over the measured pass with
// one client (they repeat exactly for a seed); *_ns/_us metrics are
// timed calls on stand-alone instances or trace spans.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var m []metricDef
	add := func(name, unit, better, moves string) {
		m = append(m, metricDef{Name: name, Unit: unit, Better: better, Moves: moves})
	}
	for _, op := range execOperators {
		add("exec.sim_ms."+op, "ms", "lower", movesSim)
	}
	for _, ph := range execPhases {
		moves := movesHostO
		if ph == "exec" {
			moves = movesHostQ
		}
		if ph == "admission" || ph == "scatter" || ph == "merge" {
			moves = movesOpen
		}
		add("exec."+ph+"_us", "us", "lower", moves)
	}
	add("exec.host_us_per_flash_io", "us", "lower", movesHostQ)
	add("exec.select_host_p50_us", "us", "lower", "p50_ms on the closed-loop workloads")
	add("exec.dml_host_p50_us", "us", "lower", movesHostW)
	add("exec.compact_host_ms", "ms", "lower", movesHostW)
	add("exec.compact_sim_ms", "ms", "lower", "sim_ms_per_stmt on write-mix")
	add("exec.compactions", "count", "higher", "none: sizing check, a write-mix run needs >= 8 (a traced quarter-length pass >= 2)")
	add("exec.front_share", "ratio", "lower", "none: share of host time outside exec spans")

	add("sqlparse.parse_us", "us", "lower", movesHostO)
	add("query.resolve_us", "us", "lower", movesHostO)
	add("exec.prepare_us", "us", "lower", movesHostO)

	add("flash.page_reads_per_stmt", "count", "lower", movesSim)
	add("flash.page_writes_per_stmt", "count", "lower", movesSim)
	add("flash.bytes_to_ram_per_stmt", "B", "lower", movesSim)
	add("flash.gc_moves_per_stmt", "count", "lower", "sim_ms_per_stmt, flash.write_amp on write-mix; 0 by construction until the FTL defect is fixed")
	add("flash.erases_per_stmt", "count", "lower", "none at Table 1 prices (erases are free); paperq is the workload that erases")
	add("flash.max_wear", "count", "lower", "none: wear-leveling diagnostic")
	add("flash.write_amp", "ratio", "lower", "sim_ms_per_stmt, storage_amp on write-mix")
	add("flash.read_ns_per_page", "ns", "lower", movesHostQ)
	add("flash.write_ns_per_page", "ns", "lower", movesHostW)
	add("flash.gc_write_ns_per_page", "ns", "lower", movesHostW)

	add("store.seqread_ns_per_row", "ns", "lower", movesHostQ)
	add("store.seqread_ra_ns_per_row", "ns", "lower", movesHostQ)
	add("store.rowfile_append_ns_per_row", "ns", "lower", "setup_s; goodput_qps on paperq (spools)")
	add("store.idlist_add_ns_per_id", "ns", "lower", movesHostQ)
	add("store.runreader_ns_per_id", "ns", "lower", movesHostQ)
	add("store.pages_per_1k_rows", "count", "lower", movesStorage)

	add("btree.lookup_ns", "ns", "lower", movesHostQ)
	add("btree.lookup_pages", "count", "lower", "sim_ms_per_stmt on paperq")
	add("btree.scan_ns_per_entry", "ns", "lower", movesHostQ)
	add("btree.bulk_ns_per_entry", "ns", "lower", "setup_s")
	add("btree.insert_ns", "ns", "lower", movesHostW)

	add("index.runs_eq_ns", "ns", "lower", movesHostQ)
	add("index.runs_range_ns", "ns", "lower", movesHostQ)
	add("index.pages_per_probe", "count", "lower", "sim_ms_per_stmt on paperq")
	add("index.skt_readrow_ns", "ns", "lower", movesHostQ)
	add("index.insert_entry_ns", "ns", "lower", movesHostW)
	add("index.build_s", "s", "lower", "setup_s")
	add("index.storage_pages", "count", "lower", movesStorage)

	add("bloom.add_ns", "ns", "lower", "goodput_qps on paperq (Post strategies)")
	add("bloom.maycontain_ns", "ns", "lower", "goodput_qps on paperq (Post strategies)")
	add("bloom.fpr", "ratio", "lower", "sim_ms_per_stmt on paperq (Post strategies)")

	add("bus.down_bytes_per_stmt", "B", "lower", "sim_ms_per_stmt on paperq and oltp-server (link time)")
	add("bus.up_bytes_per_stmt", "B", "lower", "sim_ms_per_stmt (query text only)")
	add("bus.coalesced_per_stmt", "count", "higher", "none: round-trips saved by batching")
	add("bus.ship_ns", "ns", "lower", movesHostQ)
	add("untrusted.vis_ns_per_row", "ns", "lower", "goodput_qps on paperq and oltp-server")
	add("untrusted.countvis_ns_per_row", "ns", "lower", "exec.plan_us, goodput_qps on oltp-server")

	add("ram.reserve_release_ns", "ns", "lower", movesHostQ)
	add("ram.high_water_bytes", "B", "lower", "none: must stay within the 64KB budget")
	add("sched.acquire_release_ns", "ns", "lower", movesHostO)
	add("sched.queue_wait_p99_ms", "ms", "lower", movesOpen)
	add("sched.grant_buffers_mean", "count", "higher", movesOpen)
	add("sched.sheds", "count", "lower", movesOpen)
	add("sched.shed_frac_r1800", "ratio", "lower", "goodput_qps on open-mix")

	add("cache.hit_rate", "ratio", "higher", "goodput_qps, sim_ms_per_stmt on oltp-server")
	add("cache.get_hit_ns", "ns", "lower", movesHostO)
	add("cache.put_ns", "ns", "lower", movesHostO)
	add("cache.evictions", "count", "lower", "cache.hit_rate")
	add("cache.invalidations", "count", "lower", "cache.hit_rate")
	add("pagecache.hit_rate", "ratio", "higher", "sim_ms_per_stmt, bus.down_bytes_per_stmt on oltp-server")
	add("pagecache.acquire_hit_ns", "ns", "lower", movesHostO)
	add("pagecache.put_ns", "ns", "lower", movesHostO)
	add("pagecache.evictions", "count", "lower", "pagecache.hit_rate")

	add("delta.commit_ns", "ns", "lower", movesHostW)
	add("delta.pages_per_commit", "count", "lower", "flash.write_amp, storage_amp on write-mix")
	add("delta.lookup_ns", "ns", "lower", movesHostW)
	add("delta.depth_peak_pages", "count", "lower", "sim_ms_per_stmt, p99_ms on write-mix")

	add("server.roundtrip_us", "us", "lower", "p50_ms on oltp-server")
	add("server.ping_us", "us", "lower", "p50_ms on oltp-server")

	add("obs.trace_overhead_frac", "ratio", "lower", "none: cost of tracing itself")
	add("obs.span_coverage_frac", "ratio", "higher", "none: traced spans / host latency, checked >= 0.9")
	add("loadgen.late_p99_ms", "ms", "lower", "none: dispatcher lateness, a validity check")
	add("loadgen.max_rate_in_slo", "1/s", "higher", "the serving capacity step (600/1200/1800) on open-mix")
	add("loadgen.p99_ms_r600", "ms", "lower", "none: open-mix tail at the unloaded rate")
	add("loadgen.p99_ms_r1200", "ms", "lower", "none: open-mix tail near the knee; too seed-dependent (17% spread) to bound")
	return m
}
