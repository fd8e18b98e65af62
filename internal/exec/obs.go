package exec

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"ghostdb/internal/metrics"
	"ghostdb/internal/obs"
	"ghostdb/internal/query"
	"ghostdb/internal/sched"
)

// This file threads the leak-aware telemetry layer (internal/obs)
// through the engine. Everything exported here is declassified by
// construction — obs is registered untrusted-side in the analyzer
// config, so the trustboundary rule proves no hidden-derived value can
// cross into it:
//
//   - Durations are functions of the metered flash/bus counters (the
//     cost model) or of wall-clock scheduling, never of hidden tuples.
//   - Grant sizes, queue depths and admission counts are RAM-admission
//     bookkeeping over plan-derived floors (pure functions of query
//     text + schema).
//   - The slow log's query text is the canonical resolved form — the
//     one thing the security model reveals to the untrusted side anyway.

// spanBus names the cost span covering the query-text upload — the bus
// transfer that, per §1, is the only data ever revealed to a spy.
const spanBus = "Bus"

// sloWindow / sloSlots shape the rolling wall-latency window behind the
// SLO gauges and the /slo endpoint: one minute of history in 5-second
// slots, so attainment reacts within seconds and forgets within the
// minute.
const (
	sloWindow = time.Minute
	sloSlots  = 12
)

// instruments holds the engine's always-on metric handles. Collection
// is a few atomic adds per query; exposure (the /metrics endpoint, the
// REPL command) is what processes opt into.
type instruments struct {
	queryErrs *obs.Counter
	simHist   *obs.Histogram
	grantHist *obs.Histogram

	// inFlight counts client-level statements between RunCtx entry and
	// return (queued included); wallWin is the rolling wall-clock
	// latency window the SLO gauges and /slo read.
	inFlight atomic.Int64
	wallWin  *obs.WindowedHistogram

	// Per-token (shard-labeled) instruments, indexed by token ordinal.
	queueWait   []*obs.Histogram
	slotOcc     []*obs.Histogram
	rejections  []*obs.Counter
	sheds       []*obs.Counter
	compactSecs []*obs.Histogram

	compactErrs *obs.Counter
}

// newInstruments registers the engine's metric families on db's
// registry and wires each token's admission scheduler to its queue-wait
// histogram. Called once from NewDB, before any traffic.
func newInstruments(db *DB) *instruments {
	r := db.reg
	inst := &instruments{
		queryErrs: r.Counter("ghostdb_query_errors_total", "queries that failed during execution"),
		simHist: r.Histogram("ghostdb_query_sim_seconds",
			"per-query simulated time under the paper's cost model (cache hits observe 0)", obs.TimeBuckets()),
		grantHist: r.Histogram("ghostdb_session_grant_buffers",
			"elastic RAM grant per admitted session, in whole buffers", obs.GrantBuckets()),
	}
	inst.compactErrs = r.Counter("ghostdb_compaction_errors_total",
		"background delta compactions that failed")
	r.CounterFunc("ghostdb_queries_total", "completed queries, cache hits included",
		func() float64 { return float64(db.Totals().Queries) })
	r.CounterFunc("ghostdb_slowlog_entries_total", "queries recorded by the slow-query log",
		func() float64 { return float64(db.slow.Total()) })

	// Build metadata and liveness: the constant-1 info gauge names the
	// code and topology a scrape measured; uptime dates the process.
	r.GaugeFunc("ghostdb_build_info", "build metadata carried in labels; the value is always 1",
		func() float64 { return 1 },
		obs.L("version", Version),
		obs.L("shards", fmt.Sprintf("%d", db.opts.Shards)),
		obs.L("tokens", fmt.Sprintf("%d", db.opts.Shards)))
	r.GaugeFunc("ghostdb_process_uptime_seconds", "seconds since engine construction",
		func() float64 { return time.Since(db.start).Seconds() })

	// The live SLO observatory: client-level wall latency in a rolling
	// window, scored against Options.SLOTarget, in the same
	// obs.TimeBuckets as every other latency histogram of the registry.
	inst.wallWin = obs.NewWindowedHistogram(obs.TimeBuckets(), sloWindow, sloSlots)
	target := db.opts.SLOTarget.Seconds()
	r.GaugeFunc("ghostdb_queries_in_flight", "client-level statements currently queued or executing",
		func() float64 { return float64(inst.inFlight.Load()) })
	r.GaugeFunc("ghostdb_slo_target_seconds", "the wall-clock latency objective of the SLO window",
		func() float64 { return target })
	r.GaugeFunc("ghostdb_slo_attainment",
		"fraction of windowed statements completing within the SLO target (1 when idle)",
		func() float64 { return inst.wallWin.Attainment(target) })
	r.GaugeFunc("ghostdb_slo_window_p50_seconds", "rolling p50 of client-level wall latency",
		func() float64 { return inst.wallWin.Quantile(0.50) })
	r.GaugeFunc("ghostdb_slo_window_p95_seconds", "rolling p95 of client-level wall latency",
		func() float64 { return inst.wallWin.Quantile(0.95) })
	r.GaugeFunc("ghostdb_slo_window_p99_seconds", "rolling p99 of client-level wall latency",
		func() float64 { return inst.wallWin.Quantile(0.99) })

	for i, t := range db.tokens {
		tok := t
		shard := obs.L("shard", fmt.Sprintf("%d", i))
		qw := r.Histogram("ghostdb_sched_queue_wait_seconds",
			"wall-clock wait in the FIFO admission queue", obs.TimeBuckets(), shard)
		inst.queueWait = append(inst.queueWait, qw)
		inst.slotOcc = append(inst.slotOcc, r.Histogram("ghostdb_slot_occupancy_seconds",
			"wall-clock time sessions hold the token's serial execution slot", obs.TimeBuckets(), shard))
		inst.rejections = append(inst.rejections, r.Counter("ghostdb_sched_rejections_total",
			"admission requests rejected up front (plan floor exceeds the budget)", shard))
		inst.sheds = append(inst.sheds, r.Counter("ghostdb_shed_total",
			"statements shed at arrival with ErrOverloaded (predicted queue wait over Options.MaxQueueWait)", shard))
		admissions := r.Counter("ghostdb_sched_admissions_total", "sessions admitted", shard)
		tok.sched.SetAdmitObserver(func(wait time.Duration, grantBuffers int) {
			qw.Observe(wait.Seconds())
			inst.grantHist.Observe(float64(grantBuffers))
			admissions.Inc()
		})
		r.GaugeFunc("ghostdb_sched_queue_depth", "admission requests waiting",
			func() float64 { return float64(tok.QueueLen()) }, shard)
		r.GaugeFunc("ghostdb_sched_running", "admitted, unreleased sessions",
			func() float64 { return float64(tok.Running()) }, shard)
		r.GaugeFunc("ghostdb_token_ram_buffers", "secure RAM budget in whole buffers",
			func() float64 { return float64(tok.RAMBuffers()) }, shard)
		r.CounterFunc("ghostdb_token_sessions_total", "query sessions completed on this token",
			func() float64 { return float64(tok.Totals().Queries) }, shard)
		r.CounterFunc("ghostdb_token_sim_seconds_total", "simulated seconds of completed sessions",
			func() float64 { return tok.Totals().SimTime.Seconds() }, shard)
		r.CounterFunc("ghostdb_token_flash_reads_total", "flash page reads",
			func() float64 { return float64(tok.Totals().Flash.PageReads) }, shard)
		r.CounterFunc("ghostdb_token_flash_writes_total", "flash page writes",
			func() float64 { return float64(tok.Totals().Flash.PageWrites) }, shard)
		r.CounterFunc("ghostdb_token_bus_down_bytes_total", "bytes moved untrusted→token",
			func() float64 { return float64(tok.Totals().BusDown) }, shard)
		r.CounterFunc("ghostdb_token_bus_up_bytes_total", "bytes moved token→untrusted",
			func() float64 { return float64(tok.Totals().BusUp) }, shard)
		// Write-path families: everything here reads the token's
		// declassified mirrors (statement counts and page depths —
		// derivable from statement text plus commit volume, which the
		// model already reveals), never live delta state.
		inst.compactSecs = append(inst.compactSecs, r.Histogram("ghostdb_compaction_seconds",
			"wall-clock duration of delta compactions", obs.TimeBuckets(), shard))
		r.GaugeFunc("ghostdb_delta_pages", "live delta-log depth in flash pages",
			func() float64 { return float64(tok.DeltaPages()) }, shard)
		r.CounterFunc("ghostdb_dml_statements_total", "committed UPDATE/DELETE statements",
			func() float64 { return float64(tok.DMLStatements()) }, shard)
		r.CounterFunc("ghostdb_compactions_total", "delta compactions completed",
			func() float64 { return float64(tok.Compactions()) }, shard)
	}

	r.CounterFunc("ghostdb_cache_hits_total", "result-cache hits (zero token work)",
		func() float64 { return float64(db.CacheStats().Hits) })
	r.CounterFunc("ghostdb_cache_shared_total", "results shared via singleflight",
		func() float64 { return float64(db.CacheStats().SharedHits) })
	r.CounterFunc("ghostdb_cache_misses_total", "result-cache misses",
		func() float64 { return float64(db.CacheStats().Misses) })
	r.CounterFunc("ghostdb_cache_evictions_total", "LRU evictions",
		func() float64 { return float64(db.CacheStats().Evictions) })
	r.CounterFunc("ghostdb_cache_invalidations_total", "entries invalidated by committed inserts",
		func() float64 { return float64(db.CacheStats().Invalidations) })
	r.GaugeFunc("ghostdb_cache_entries", "live result-cache entries",
		func() float64 { return float64(db.CacheStats().Entries) })
	r.GaugeFunc("ghostdb_cache_bytes", "result-cache occupancy in bytes",
		func() float64 { return float64(db.CacheStats().Bytes) })

	// Page-cache / bus-batching families (PR 10). Everything here reads
	// untrusted-side counters or declassified link totals — never hidden
	// state.
	r.CounterFunc("ghostdb_pagecache_hits_total", "page-cache hits (visible runs served from host RAM)",
		func() float64 { return float64(db.PageCacheStats().Hits) })
	r.CounterFunc("ghostdb_pagecache_misses_total", "page-cache misses",
		func() float64 { return float64(db.PageCacheStats().Misses) })
	r.CounterFunc("ghostdb_pagecache_evictions_total", "page-cache evictions",
		func() float64 { return float64(db.PageCacheStats().Evictions) })
	r.CounterFunc("ghostdb_pagecache_invalidations_total", "page-cache invalidations by committed writes",
		func() float64 { return float64(db.PageCacheStats().Invalidations) })
	r.GaugeFunc("ghostdb_pagecache_entries", "live page-cache entries",
		func() float64 { return float64(db.PageCacheStats().Entries) })
	r.GaugeFunc("ghostdb_pagecache_bytes", "page-cache occupancy in bytes",
		func() float64 { return float64(db.PageCacheStats().Bytes) })
	r.CounterFunc("ghostdb_bus_coalesced_total", "link round-trips saved by batched transfers",
		func() float64 { return float64(db.BusCoalesced()) })
	r.GaugeFunc("ghostdb_prefetch_inflight", "flash pages staged by read-ahead but not yet consumed",
		func() float64 { return float64(db.PrefetchInflight()) })
	return inst
}

// Metrics returns the engine's metric registry. It always exists and is
// always collecting (a few atomic adds per query); whether anything is
// exposed — /metrics, the REPL command — is the caller's choice.
func (db *DB) Metrics() *obs.Registry { return db.reg }

// SlowLog returns the slow-query log, nil when disabled
// (Options.SlowQueryThreshold == 0).
func (db *DB) SlowLog() *obs.SlowLog { return db.slow }

// traceParent returns the span new session work should nest under: the
// scatter leg's span for fan-out sub-sessions, else the trace root —
// nil (a no-op) for the untraced hot path.
func (cfg *QueryConfig) traceParent() *obs.Span {
	if cfg.span != nil {
		return cfg.span
	}
	return cfg.Trace.Root()
}

// attachOperatorSpans converts the collector's per-operator cost spans
// into sim-only children of the session's exec span, in first-seen
// order, then adds the unattributed remainder as "other" — so the
// children's simulated durations always sum to exactly the session's
// SimTime (the EXPLAIN ANALYZE contract).
func attachOperatorSpans(sp *obs.Span, col *metrics.Collector, simTime time.Duration) {
	if sp == nil {
		return
	}
	var sum time.Duration
	for _, name := range col.Names() {
		d := col.SimTimeOf(name)
		sp.Add(name, d)
		sum += d
	}
	if rest := simTime - sum; rest > 0 {
		sp.Add("other", rest)
	}
	sp.SetSim(simTime)
}

// noteAdmissionErr classifies a failed Acquire into the per-shard
// admission counters: clean up-front denials (plan floor over budget)
// versus load sheds (predicted wait over the bound).
func (db *DB) noteAdmissionErr(tok *Token, err error) {
	switch {
	case errors.Is(err, sched.ErrNeverAdmissible):
		db.inst.rejections[tok.id].Inc()
	case errors.Is(err, sched.ErrOverloaded):
		db.inst.sheds[tok.id].Inc()
	}
}

// observeStatement records one completed statement — kind-tagged
// SELECT/UPDATE/DELETE/COMPACT — into the simulated-latency histogram
// and, when it clears the threshold, the slow log.
func (db *DB) observeStatement(kind, canonical string, st Stats) {
	db.inst.simHist.Observe(st.SimTime.Seconds())
	if db.slow == nil || st.SimTime < db.slow.Threshold() {
		return
	}
	db.slow.Record(obs.SlowQuery{
		Time:           time.Now(),
		Query:          canonical,
		Kind:           kind,
		Shard:          st.Shard,
		Scatter:        st.Scatter,
		SimUs:          st.SimTime.Microseconds(),
		QueueWaitUs:    st.QueueWait.Microseconds(),
		PlanMinBuffers: st.PlanMinBuffers,
		GrantBuffers:   st.GrantBuffers,
		Spans:          topSpanCosts(st.opSims(), 8),
	})
}

// observeSelect records one completed client-level SELECT.
func (db *DB) observeSelect(q *query.Query, st Stats) {
	db.observeStatement("SELECT", q.Canonical(), st)
}

// observeDML records one committed UPDATE or DELETE.
func (db *DB) observeDML(d *query.DML, st Stats) {
	kind := "UPDATE"
	if d.Delete {
		kind = "DELETE"
	}
	db.observeStatement(kind, d.Canonical(), st)
}

// SLOShard is one token's admission-side state in an SLO snapshot.
type SLOShard struct {
	Shard      int    `json:"shard"`
	QueueDepth int    `json:"queue_depth"`
	Running    int    `json:"running"`
	ShedTotal  uint64 `json:"shed_total"`
}

// SLOSnapshot is the live SLO observatory's view — the /slo endpoint
// payload: rolling attainment and quantiles over the last sloWindow of
// client-level wall latency, plus the per-shard admission state behind
// them. Every field is declassified scheduling bookkeeping.
type SLOSnapshot struct {
	Version       string     `json:"version"`
	TargetMs      float64    `json:"target_ms"`
	WindowSeconds float64    `json:"window_seconds"`
	Count         uint64     `json:"count"`
	Attainment    float64    `json:"attainment"`
	P50Ms         float64    `json:"p50_ms"`
	P95Ms         float64    `json:"p95_ms"`
	P99Ms         float64    `json:"p99_ms"`
	InFlight      int64      `json:"in_flight"`
	ShedTotal     uint64     `json:"shed_total"`
	UptimeSeconds float64    `json:"uptime_seconds"`
	Shards        []SLOShard `json:"shards"`
}

// SLO merges the rolling latency window and the per-token admission
// gauges into one snapshot. The quantile and attainment math is the
// plain-Histogram math over obs.TimeBuckets — identical to what a
// Prometheus scrape of the ghostdb_slo_* gauges reports.
func (db *DB) SLO() SLOSnapshot {
	h := db.inst.wallWin.Snapshot()
	target := db.opts.SLOTarget
	s := SLOSnapshot{
		Version:       Version,
		TargetMs:      float64(target.Microseconds()) / 1000,
		WindowSeconds: db.inst.wallWin.Window().Seconds(),
		Count:         h.Count(),
		Attainment:    h.FractionBelow(target.Seconds()),
		P50Ms:         h.Quantile(0.50) * 1000,
		P95Ms:         h.Quantile(0.95) * 1000,
		P99Ms:         h.Quantile(0.99) * 1000,
		InFlight:      db.inst.inFlight.Load(),
		UptimeSeconds: time.Since(db.start).Seconds(),
	}
	for i, tok := range db.tokens {
		shed := db.inst.sheds[i].Value()
		s.ShedTotal += shed
		s.Shards = append(s.Shards, SLOShard{
			Shard:      i,
			QueueDepth: tok.QueueLen(),
			Running:    tok.Running(),
			ShedTotal:  shed,
		})
	}
	return s
}

// topSpanCosts renders the per-operator simulated costs as a span
// summary, slowest first, capped at n entries.
func topSpanCosts(sims map[string]time.Duration, n int) []obs.SpanCost {
	out := make([]obs.SpanCost, 0, len(sims))
	for name, d := range sims {
		out = append(out, obs.SpanCost{Name: name, SimUs: d.Microseconds()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SimUs != out[j].SimUs {
			return out[i].SimUs > out[j].SimUs
		}
		return out[i].Name < out[j].Name
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}
