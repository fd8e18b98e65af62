package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"ghostdb/internal/obs"
	"ghostdb/internal/ref"
)

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// tiny shrinks datasets and pass lengths so `go test` runs the whole
	// pipeline in seconds; its numbers mean nothing.
	tiny bool
	// spans collects the traced run's spans (nil when not tracing).
	spans *spanLog
}

// closedDef describes a closed-loop, one-client workload: how to build
// the engine and how to generate its statements. One client because the
// host has two cores and the engine shares them with the generator.
type closedDef struct {
	name      string
	build     func(tiny bool) (*fixture, error)
	newStream func(seed int64, fx *fixture) stream
	// chunk is the number of statements per throughput sample; passes
	// start and stop on chunk boundaries. paperq uses one shuffled round
	// of its statement set, so every chunk is identical work.
	chunk int
	// compactEvery > 0 issues an explicit db.Compact after that many
	// UPDATE/DELETE statements (automatic compaction is off, so
	// compaction is deterministic and timed as its own operation).
	compactEvery int
	// epoch > 0 replaces the engine with a freshly built one after that
	// many statements, and the device is sized to hold everything one
	// epoch programs. At the seed commit the FTL corrupts pages when its
	// garbage collector relocates valid ones (README, "The FTL defect"),
	// so a workload that writes long-lived pages must never fill its
	// device; a device big enough for a whole run would instead grow the
	// heap by ~100 MB per second of run. A read-only workload leaves
	// only whole blocks of dead spool pages behind, which the collector
	// erases without relocating anything, and runs on one bounded device.
	epoch int
}

// Warm-up bounds: steady state is every device having erased a block
// (where the workload lets devices fill at all) and HeapSys growing
// under 5% between two checks 250 ms apart; the cap keeps warm-up
// inside the driver's per-run budget.
const (
	warmCheck     = 250 * time.Millisecond
	warmCap       = 2 * time.Second
	warmHeapDrift = 0.05
	// replayBudget bounds the post-run oracle replay of the timed
	// statements; reads beyond it are sampled at a fixed stride.
	replayBudget = 1500 * time.Millisecond
)

// executed is one statement as the engine ran it, kept for the oracle
// replay. renew marks an epoch boundary: the statements after it ran on
// a fresh engine, whose oracle it carries.
type executed struct {
	st    stmt
	count int64
	err   error
	renew *ref.Engine
}

// cacheCounts are the counters of the two untrusted-side caches and the
// bus batching, as differences over a pass.
type cacheCounts struct {
	resHits, resMisses, resEvictions, resInvalidations uint64
	pageHits, pageMisses, pageEvictions                uint64
	coalesced                                          uint64
}

func readCacheCounts(fx *fixture) cacheCounts {
	rs, ps := fx.db.CacheStats(), fx.db.PageCacheStats()
	c := cacheCounts{
		resHits: rs.Hits + rs.SharedHits, resMisses: rs.Misses, resEvictions: rs.Evictions, resInvalidations: rs.Invalidations,
		pageHits: ps.Hits, pageMisses: ps.Misses, pageEvictions: ps.Evictions,
	}
	for _, t := range fx.tokens() {
		c.coalesced += t.Bus.Coalesced()
	}
	return c
}

// addSince adds (now - since) to c.
func (c *cacheCounts) addSince(now, since cacheCounts) {
	c.resHits += now.resHits - since.resHits
	c.resMisses += now.resMisses - since.resMisses
	c.resEvictions += now.resEvictions - since.resEvictions
	c.resInvalidations += now.resInvalidations - since.resInvalidations
	c.pageHits += now.pageHits - since.pageHits
	c.pageMisses += now.pageMisses - since.pageMisses
	c.pageEvictions += now.pageEvictions - since.pageEvictions
	c.coalesced += now.coalesced - since.coalesced
}

// pass is the yield of one measured (or warm-up) pass.
type pass struct {
	log     []executed
	latMs   []float64              // per statement, execution order
	byKind  map[stmtKind][]float64 // the same, split by kind
	chunkPS []float64              // correct statements per second, per chunk
	cost    sample                 // exact counters, all statements
	compact sample                 // the share of cost spent in explicit compactions
	writes  sample                 // the share spent in INSERT/UPDATE/DELETE and compactions
	amps    []float64              // flash in use / user bytes at each chunk boundary
	wall    time.Duration          // engine renewals excluded
	cpu     time.Duration          // process CPU, renewals excluded
	alloc   uint64                 // bytes allocated, renewals excluded
	mallocs uint64
	caches  cacheCounts

	maxPageWrites uint64 // most pages one statement programmed
	ramHigh       int
	grantSum      int
	grantN        int
	deltaPeak     int
	// deltaAppended / deltaCommits: delta-log pages appended by the
	// pass's committed UPDATE/DELETE statements.
	deltaAppended int
	deltaCommits  int
	queueWaits    []float64
	opSimUs       map[string]int64 // traced passes: Σ per-operator simulated µs
	simSumBad     int              // traced: statements whose operator rows miss SimTime by >1%
	traceSimUs    int64            // traced: Σ Stats.SimTime of traced statements, µs
}

func (p *pass) statements() int { return len(p.latMs) }

// runner carries the state that survives from one pass to the next: the
// current engine, the stream position, the ledger and the write count
// that schedules compactions.
type runner struct {
	def  closedDef
	rc   runConfig
	fx   *fixture
	strm stream
	led  *ledger

	writes    int
	consumed  int // stream statements taken so far (compactions excluded)
	inEpoch   int // of those, on the current engine
	epochs    int // engines built after the first
	seq       int // statement ordinal across passes, the span files' stmt id
	lastDelta int // Σ delta-log pages after the previous statement
	leaked    bool
	failures  []string
}

func newRunner(def closedDef, rc runConfig, fx *fixture) *runner {
	return &runner{def: def, rc: rc, fx: fx, strm: def.newStream(rc.seed, fx), led: newLedger(fx)}
}

// noteFailure keeps the first few failed statements for the report.
func (r *runner) noteFailure(st stmt, why string) {
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf("%s [%v]: %s", st.sql, st.cfg.Strategy, why))
	}
}

// nextStmt takes the next statement of the stream.
func (r *runner) nextStmt() stmt {
	r.consumed++
	r.inEpoch++
	return r.strm.next()
}

// compactionDue counts a committed UPDATE/DELETE and reports whether
// the explicit compaction that follows every compactEvery of them is
// due now.
func (r *runner) compactionDue(st stmt) bool {
	if r.def.compactEvery <= 0 || (st.kind != kUpdate && st.kind != kDelete) {
		return false
	}
	r.writes++
	return r.writes%r.def.compactEvery == 0
}

// renewDue reports whether the next chunk belongs to a new epoch. It is
// asked before every chunk, whichever pass runs it, so which engine a
// chunk runs on depends only on the chunk's ordinal — the traced twin
// must renew at the same statements as the run it repeats.
func (r *runner) renewDue() bool { return r.def.epoch > 0 && r.inEpoch >= r.def.epoch }

// renew replaces the engine with a freshly built one (same data, a new
// stream) and returns the new engine's oracle.
func (r *runner) renew() (*ref.Engine, error) {
	r.leaked = r.leaked || r.fx.db.Leaked()
	if err := r.fx.close(); err != nil {
		return nil, err
	}
	fx, err := r.def.build(r.rc.tiny)
	if err != nil {
		return nil, fmt.Errorf("%s: engine renewal: %w", r.def.name, err)
	}
	r.epochs++
	r.fx, r.led = fx, newLedger(fx)
	r.strm = r.def.newStream(r.rc.seed+int64(r.epochs)*7919, fx)
	r.inEpoch, r.writes, r.lastDelta = 0, 0, 0
	return fx.oracle, nil
}

// runPass executes whole chunks until stop says so (it is asked after
// every chunk). With spans set every statement runs in process with an
// engine trace attached.
func (r *runner) runPass(stop func(chunks int, elapsed time.Duration) bool, spans *spanLog) (*pass, error) {
	ctx := context.Background()
	p := &pass{byKind: map[stmtKind][]float64{}, opSimUs: map[string]int64{}}
	segment := func() (hostUsage, cacheCounts) { return readHostUsage(), readCacheCounts(r.fx) }
	closeSegment := func(u0 hostUsage, c0 cacheCounts) {
		u1, c1 := segment()
		p.wall += u1.at.Sub(u0.at)
		p.cpu += u1.cpu - u0.cpu
		p.alloc += u1.allocBytes - u0.allocBytes
		p.mallocs += u1.mallocs - u0.mallocs
		p.caches.addSince(c1, c0)
	}
	u0, c0 := segment()
	for chunks := 0; ; {
		if r.renewDue() {
			closeSegment(u0, c0)
			orc, err := r.renew()
			if err != nil {
				return nil, err
			}
			p.log = append(p.log, executed{renew: orc})
			u0, c0 = segment()
		}
		chunkStart := time.Now()
		ok := 0
		for i := 0; i < r.def.chunk; i++ {
			st := r.nextStmt()
			if r.execOne(ctx, p, st, spans) {
				ok++
			}
			if r.compactionDue(st) {
				r.execOne(ctx, p, compactStmt, spans)
			}
		}
		p.chunkPS = append(p.chunkPS, float64(ok)/time.Since(chunkStart).Seconds())
		p.amps = append(p.amps, float64(r.fx.flashBytesInUse())/float64(r.fx.userBytes))
		chunks++
		if stop(chunks, p.wall+time.Since(u0.at)) {
			break
		}
	}
	closeSegment(u0, c0)
	return p, nil
}

// compactStmt is the explicit compaction the runner issues.
var compactStmt = stmt{kind: kCompact, sql: "COMPACT"}

// execOne runs one statement, times it and books its exact cost.
func (r *runner) execOne(ctx context.Context, p *pass, st stmt, spans *spanLog) bool {
	var tr *obs.Trace
	traceStart := time.Now()
	if spans != nil && st.kind != kCompact {
		tr = obs.NewTrace(st.kind.String())
	}
	t0 := time.Now()
	out, err := r.fx.run(ctx, st, tr)
	t1 := time.Now()
	lat := t1.Sub(t0)
	r.seq++
	ms := float64(lat.Nanoseconds()) / 1e6
	p.latMs = append(p.latMs, ms)
	p.byKind[st.kind] = append(p.byKind[st.kind], ms)
	p.log = append(p.log, executed{st: st, count: out.count, err: err})
	if err != nil {
		return false
	}
	c := r.led.note(st, out)
	p.cost.add(c)
	p.maxPageWrites = max(p.maxPageWrites, c.Flash.PageWrites)
	if st.kind != kSelect {
		p.writes.add(c)
	}
	if st.kind == kCompact {
		p.compact.add(c)
		spans.addCall("exec.Compact", t0, t1)
	}
	if st.kind == kInsert {
		r.fx.userBytes += int64(r.fx.rowBytes[st.table])
	}
	if s := out.stats; s != nil && !out.hit {
		p.ramHigh = max(p.ramHigh, s.RAMHigh)
		if s.GrantBuffers > 0 {
			p.grantSum += s.GrantBuffers
			p.grantN++
		}
		p.queueWaits = append(p.queueWaits, float64(s.QueueWait.Nanoseconds())/1e6)
	}
	depth := 0
	for _, t := range r.fx.tokens() {
		depth += t.DeltaPages()
	}
	p.deltaPeak = max(p.deltaPeak, depth)
	if (st.kind == kUpdate || st.kind == kDelete) && depth > r.lastDelta {
		p.deltaAppended += depth - r.lastDelta
		p.deltaCommits++
	}
	r.lastDelta = depth
	if tr != nil {
		tr.Finish()
		snap := tr.Snapshot()
		spans.addStatement(r.seq, st.kind.String(), t0, t1, traceStart, snap)
		bookTrace(p, snap, out)
	}
	return true
}

// bookTrace folds one statement's engine trace into the pass: the
// per-operator simulated costs, checked against the statement's SimTime.
func bookTrace(p *pass, snap obs.SpanJSON, out outcome) {
	var opSum int64
	var walk func(s obs.SpanJSON)
	walk = func(s obs.SpanJSON) {
		if s.Name == "exec" {
			for _, c := range s.Children {
				if c.WallUs == 0 && c.Name != "pace" {
					p.opSimUs[c.Name] += c.SimUs
					opSum += c.SimUs
				}
			}
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(snap)
	if out.stats != nil {
		sim := out.stats.SimTime.Microseconds()
		p.traceSimUs += sim
		// Each operator row is truncated to a whole microsecond, so allow
		// one per row on top of the 1%.
		slack := sim/100 + int64(len(execOperators))
		if d := opSum - sim; d > slack || d < -slack {
			p.simSumBad++
		}
	}
}

// warmUp runs the stream until steady state or the cap, and reports
// what it reached.
func (r *runner) warmUp(rep *report, limit time.Duration) (*pass, error) {
	lastHeap, lastAt := heapSys(), time.Duration(0)
	steady := false
	p, err := r.runPass(func(_ int, elapsed time.Duration) bool {
		if elapsed >= limit {
			return true
		}
		if elapsed-lastAt < warmCheck {
			return false
		}
		h := heapSys()
		grew := float64(h)/float64(lastHeap) - 1
		lastHeap, lastAt = h, elapsed
		// A workload on renewed engines never lets a device fill, so
		// there is no erase to wait for.
		steady = grew < warmHeapDrift && (r.def.epoch > 0 || r.allErased())
		return steady
	}, nil)
	if err != nil {
		return nil, err
	}
	rep.notef("warm-up: %d statements in %.2fs, steady=%v", p.statements(), p.wall.Seconds(), steady)
	return p, nil
}

func (r *runner) allErased() bool {
	for _, t := range r.fx.tokens() {
		if t.Dev.MaxWear() == 0 {
			return false
		}
	}
	return true
}

// verifyPass runs one chunk with the uplink audit on and compares every
// answer in full with the oracle, in lock-step. It is outside every
// timed region.
func (r *runner) verifyPass(rep *report, orc *oracle) error {
	ctx := context.Background()
	if r.renewDue() {
		eng, err := r.renew()
		if err != nil {
			return err
		}
		orc.reset(eng)
	}
	r.fx.setAudit(true)
	defer r.fx.setAudit(false)
	bad := 0
	for i := 0; i < r.def.chunk; i++ {
		st := r.nextStmt()
		for _, t := range r.fx.tokens() {
			t.Bus.SetAuditLimit(0) // also clears the trail
		}
		out, err := r.fx.run(ctx, st, nil)
		r.seq++
		rep.Attempted++
		if err != nil {
			bad++
			rep.checkf(false, "statement", "%s: %v", st.sql, err)
			continue
		}
		r.led.note(st, out) // keeps the ledger's per-token readings current
		if st.kind == kInsert {
			r.fx.userBytes += int64(r.fx.rowBytes[st.table])
		}
		if msg := r.compare(st, out, orc); msg != "" {
			bad++
			rep.checkf(false, "oracle", "%s: %s", st.sql, msg)
		} else if msg := r.auditOK(st, out); msg != "" {
			bad++
			rep.checkf(false, "uplink-audit", "%s: %s", st.sql, msg)
		}
		if r.compactionDue(st) {
			out, err := r.fx.run(ctx, compactStmt, nil)
			if err != nil {
				bad++
				rep.checkf(false, "statement", "COMPACT: %v", err)
				continue
			}
			r.led.note(compactStmt, out)
		}
	}
	orc.dropRows()
	if bad == 0 {
		rep.checkf(true, "verification-pass",
			"%d statements answered as internal/ref does; each admitted statement's uplink is one query record carrying its text", r.def.chunk)
	}
	return nil
}

// compare checks one executed statement against the oracle and returns
// a description of the difference, or "".
func (r *runner) compare(st stmt, out outcome, orc *oracle) string {
	if st.kind != kSelect {
		n, err := orc.apply(st)
		if err != nil {
			return err.Error()
		}
		if out.count >= 0 && st.kind != kInsert && n != out.count {
			return fmt.Sprintf("engine affected %d rows, oracle %d", out.count, n)
		}
		return ""
	}
	want, n, err := orc.rows(st)
	if err != nil {
		return err.Error()
	}
	if n != out.count {
		return fmt.Sprintf("engine returned %d rows, oracle %d", out.count, n)
	}
	if out.wire != nil {
		for i, row := range want {
			if got := out.wire[i]; got != wireRow(row) {
				return fmt.Sprintf("row %d: engine %q, oracle %q", i, got, wireRow(row))
			}
		}
		return ""
	}
	if !rowsEqual(out.rows, want) {
		return "same row count, different rows"
	}
	return ""
}

// auditOK checks the leak invariant on the statement that just ran: a
// statement that reached a token uploaded exactly one record, of kind
// "query", carrying the statement text (DML uploads its canonical
// form); a cache hit and an INSERT upload nothing, a scatter query one
// record per token (each leg's own part of the text).
func (r *runner) auditOK(st stmt, out outcome) string {
	var ups int
	for _, t := range r.fx.tokens() {
		for _, rec := range t.Bus.UplinkRecords() {
			ups++
			if rec.Kind != "query" {
				return fmt.Sprintf("uplink record of kind %q", rec.Kind)
			}
			if st.kind == kSelect && !st.scatter && rec.Payload != st.sql {
				return fmt.Sprintf("uplink payload %q is not the statement text", rec.Payload)
			}
		}
	}
	want := 1
	switch {
	case out.hit || st.kind == kInsert:
		want = 0
	case st.scatter:
		want = len(r.fx.tokens())
	}
	if ups != want {
		return fmt.Sprintf("%d uplink records, want %d", ups, want)
	}
	return ""
}

// replay brings the oracle up to date with an executed log and checks
// what it can along the way: every statement's error, every write's
// affected count, and — when checkReads is set — every read's row count
// while the budget lasts, then every stride-th read. It returns the
// failed statements, the reads checked and the reads seen.
func (r *runner) replay(log []executed, orc *oracle, checkReads bool, budget time.Duration) (failed, checked, reads int) {
	for _, e := range log {
		if e.renew == nil && e.st.kind == kSelect {
			reads++
		}
	}
	stride := 1
	if est := time.Duration(reads) * orc.meanEval(); checkReads && est > budget {
		stride = int(est/budget) + 1
	}
	start := time.Now()
	seen := 0
	for _, e := range log {
		switch {
		case e.renew != nil:
			orc.reset(e.renew)
		case e.err != nil:
			failed++
			r.noteFailure(e.st, e.err.Error())
		case e.st.kind != kSelect:
			n, err := orc.apply(e.st)
			if err != nil || (e.count >= 0 && (e.st.kind == kUpdate || e.st.kind == kDelete) && n != e.count) {
				failed++
				r.noteFailure(e.st, fmt.Sprintf("engine affected %d rows, oracle %d (%v)", e.count, n, err))
			}
		case checkReads:
			seen++
			// A memoized count costs nothing; an evaluation is taken at the
			// stride, and not at all once the budget is spent twice over.
			if !orc.memoized(e.st) && (seen%stride != 0 || time.Since(start) > 2*budget) {
				continue
			}
			n, err := orc.count(e.st)
			checked++
			if err != nil || n != e.count {
				failed++
				r.noteFailure(e.st, fmt.Sprintf("engine returned %d rows, oracle %d (%v)", e.count, n, err))
			}
		}
	}
	return failed, checked, reads
}

// runClosed is the whole pipeline of a closed-loop workload.
func runClosed(def closedDef, rc runConfig) (*report, error) {
	rep := newReport(def.name, rc)
	measure := time.Duration(rc.seconds * float64(time.Second))

	// Set-up: generate, load, build indexes, start the server. The
	// untraced run sets up three times and reports the median (the first
	// build of a process also pays heap growth); the last engine is used.
	builds := 3
	if rc.trace || rc.tiny {
		builds = 1
	}
	var setups []float64
	var fx *fixture
	for i := 0; i < builds; i++ {
		if fx != nil {
			if err := fx.close(); err != nil {
				return nil, err
			}
		}
		f, err := def.build(rc.tiny)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setups = append(setups, f.setup.Seconds())
		fx = f
	}
	r := newRunner(def, rc, fx)
	defer func() { _ = r.fx.close() }()
	rep.set("setup_s", median(setups))
	var capPages int
	for _, t := range fx.tokens() {
		capPages = max(capPages, t.Dev.Capacity())
	}
	rep.notef("set-up x%d: %.3fs median; loaded image %d flash pages, largest device %d pages",
		builds, median(setups), fx.loadedPages, capPages)

	orc := newOracle(fx.db.Sch, fx.oracle)
	warm, err := r.warmUp(rep, scaleDur(warmCap, rc.tiny))
	if err != nil {
		return nil, err
	}
	if f, _, _ := r.replay(warm.log, orc, false, 0); f > 0 {
		rep.checkf(false, "warm-up", "%d warm-up statements failed", f)
	}
	if err := r.verifyPass(rep, orc); err != nil {
		return nil, err
	}

	var moves uint64
	if rc.trace {
		moves, err = tracedClosed(rep, r, orc, measure)
	} else {
		moves, err = untracedClosed(rep, r, orc, measure)
	}
	if err != nil {
		return nil, err
	}
	moves += warm.cost.Flash.GCPageMoves
	rep.checkf(moves == 0, "ftl-relocation",
		"%d valid pages relocated by the FTL (the seed FTL corrupts pages it relocates, so a run that needs it is mis-sized)", moves)
	for _, f := range r.failures {
		rep.notef("failed: %s", f)
	}
	leaked := r.leaked || r.fx.db.Leaked()
	rep.checkf(!leaked, "leaked-grants", "db.Leaked() = %v at the end of the run (%d engines)", leaked, r.epochs+1)
	rep.finish()
	return rep, nil
}

func scaleDur(d time.Duration, tiny bool) time.Duration {
	if tiny {
		return d / 10
	}
	return d
}

// untracedClosed is the timed section: the end-to-end metrics.
func untracedClosed(rep *report, r *runner, orc *oracle, measure time.Duration) (uint64, error) {
	heap := startHeapSampler(100 * time.Millisecond)
	p, err := r.runPass(func(_ int, elapsed time.Duration) bool { return elapsed >= measure }, nil)
	heapMB := heap.Stop()
	if err != nil {
		return 0, err
	}

	failed, checked, reads := r.replay(p.log, orc, true, scaleDur(replayBudget, r.rc.tiny))
	n := p.statements()
	rep.Attempted += n
	rep.Failed += failed
	rep.notef("timed: %d statements in %.2fs (%d chunks of %d, %d engines); %d of %d reads row-count-checked against the oracle, every write's affected count checked",
		n, p.wall.Seconds(), len(p.chunkPS), r.def.chunk, r.epochs+1, checked, reads)

	rep.set("goodput_qps", median(p.chunkPS))
	rep.set("p50_ms", median(p.latMs))
	rep.set("p99_ms", p99(p.latMs))
	rep.set("sim_ms_per_stmt", float64(p.cost.sim.Microseconds())/1e3/float64(n))
	rep.set("cpu_ms_per_stmt", float64(p.cpu.Microseconds())/1e3/float64(n))
	rep.set("alloc_kb_per_stmt", float64(p.alloc)/1024/float64(n))
	rep.set("peak_heap_mb", heapMB[len(heapMB)-1])
	rep.set("storage_amp", median(p.amps))
	rep.notef("latency quantiles are exact order statistics over %d samples, %d beyond the p99; HeapInuse p50 %.1f p90 %.1f max %.1f MB over %d samples, HeapSys %.1f MB",
		n, n/100, quantile(heapMB, 0.5), quantile(heapMB, 0.9), heapMB[len(heapMB)-1], len(heapMB), float64(heapSys())/(1<<20))
	f := p.cost.Flash
	rep.notef("mallocs per statement %.1f; storage_amp is the median over chunk boundaries (%.3f at the end); per statement %.1f page reads, %.1f page writes (most %d), %.3f erases; %d compactions",
		float64(p.mallocs)/float64(n), p.amps[len(p.amps)-1],
		float64(f.PageReads)/float64(n), float64(f.PageWrites)/float64(n), p.maxPageWrites,
		float64(f.BlockErases)/float64(n), len(p.byKind[kCompact]))
	return f.GCPageMoves, nil
}

// tracedClosed is the traced run: an untraced pass for the exact
// counters and the per-kind latencies, then the same statements with a
// trace each on a twin engine built from the same seed, then the layer
// probes. The traced pass must reproduce the untraced pass's counters
// and row counts exactly.
func tracedClosed(rep *report, r *runner, orc *oracle, measure time.Duration) (uint64, error) {
	def, rc := r.def, r.rc
	// A quarter of the untraced length each way: the per-layer numbers
	// are means and medians, not tails, and the probes need the rest.
	quarter := measure / 4
	pre := r.consumed / def.chunk // warm-up and verification are whole chunks
	r.fx.inProcess = true         // both passes, so they differ by the tracing alone
	plain, err := r.runPass(func(_ int, elapsed time.Duration) bool { return elapsed >= quarter }, nil)
	if err != nil {
		return 0, err
	}
	chunks := len(plain.chunkPS)
	failed, checked, reads := r.replay(plain.log, orc, true, scaleDur(replayBudget, rc.tiny)/2)
	rep.Attempted += plain.statements()
	rep.Failed += failed
	rep.notef("untraced pass: %d statements in %.2fs; %d of %d reads checked against the oracle",
		plain.statements(), plain.wall.Seconds(), checked, reads)

	// The twin: same seed, so the same warm-up and verification
	// statements (replayed untimed, bringing it to the same state), then
	// the measured statements again with a trace each.
	twinFx, err := def.build(rc.tiny)
	if err != nil {
		return 0, fmt.Errorf("%s: twin set-up: %w", def.name, err)
	}
	twinFx.inProcess = true
	twin := newRunner(def, rc, twinFx)
	defer func() { _ = twin.fx.close() }()
	if _, err := twin.runPass(func(c int, _ time.Duration) bool { return c >= pre }, nil); err != nil {
		return 0, err
	}
	traced, err := twin.runPass(func(c int, _ time.Duration) bool { return c >= chunks }, rc.spans)
	if err != nil {
		return 0, err
	}

	same := len(plain.log) == len(traced.log)
	for i := 0; same && i < len(plain.log); i++ {
		a, b := plain.log[i], traced.log[i]
		// The traced pass runs in process, which reports the affected
		// counts the line protocol does not.
		same = a.st.sql == b.st.sql && (a.count == b.count || a.count < 0) && (a.err == nil) == (b.err == nil)
	}
	rep.checkf(same, "traced-twin-answers", "the traced pass repeated the untraced pass's %d statements and row counts", plain.statements())
	rep.checkf(plain.cost == traced.cost, "traced-twin-counters",
		"exact counters traced %+v, untraced %+v", traced.cost.Sample, plain.cost.Sample)
	rep.checkf(traced.simSumBad == 0, "operator-rows-sum",
		"per-statement operator rows sum to Stats.SimTime within 1%% on all but %d statements", traced.simSumBad)
	coverage := rc.spans.coverage()
	rep.checkf(coverage >= 0.9 && coverage <= 1.1, "phase-spans-sum",
		"the engine's phase spans cover %.1f%% of the traced statements' host latency", 100*coverage)

	layerMetrics(rep, r.fx, plain, traced, rc.spans)
	rep.set("obs.trace_overhead_frac", traced.wall.Seconds()/plain.wall.Seconds()-1)
	rep.set("obs.span_coverage_frac", coverage)
	if twin.leaked || twin.fx.db.Leaked() {
		rep.checkf(false, "leaked-grants-twin", "the twin engine leaked RAM grants")
	}
	sample := make([]stmt, 0, len(plain.log))
	for _, e := range plain.log {
		if e.renew == nil {
			sample = append(sample, e.st)
		}
	}
	return plain.cost.Flash.GCPageMoves + traced.cost.Flash.GCPageMoves, runProbes(rep, rc, r.fx, sample)
}

// layerMetrics derives the workload-dependent per-layer metrics from
// the untraced pass (exact counters, per-kind latency) and the traced
// pass (operator costs, host phases).
func layerMetrics(rep *report, fx *fixture, plain, traced *pass, spans *spanLog) {
	n := float64(plain.statements())
	nt := float64(traced.statements())
	f := plain.cost.Flash
	rep.set("flash.page_reads_per_stmt", float64(f.PageReads)/n)
	rep.set("flash.page_writes_per_stmt", float64(f.PageWrites)/n)
	rep.set("flash.bytes_to_ram_per_stmt", float64(f.BytesToRAM)/n)
	rep.set("flash.gc_moves_per_stmt", float64(f.GCPageMoves)/n)
	rep.set("flash.erases_per_stmt", float64(f.BlockErases)/n)
	var wear uint32
	for _, t := range fx.tokens() {
		wear = max(wear, t.Dev.MaxWear())
	}
	rep.set("flash.max_wear", float64(wear))
	rep.set("index.storage_pages", float64(fx.indexPages()))
	rep.set("bus.down_bytes_per_stmt", float64(plain.cost.BusDown)/n)
	rep.set("bus.up_bytes_per_stmt", float64(plain.cost.BusUp)/n)
	rep.set("bus.coalesced_per_stmt", float64(plain.caches.coalesced)/n)

	// Write amplification: pages the write statements and compactions
	// programmed (GC moves included) times the page size, over the row
	// bytes those writes carried. Spools written by reads are not in it.
	var userWritten float64
	for _, e := range plain.log {
		switch e.st.kind {
		case kInsert:
			userWritten += float64(fx.rowBytes[e.st.table])
		case kUpdate, kDelete:
			userWritten += float64(max(e.count, 0)) * float64(fx.rowBytes[e.st.table])
		}
	}
	if userWritten > 0 {
		pageSize := float64(fx.db.Options().FlashParams.PageSize)
		rep.set("flash.write_amp", float64(plain.writes.Flash.PageWrites)*pageSize/userWritten)
	}
	compactions := len(plain.byKind[kCompact])
	rep.set("exec.compactions", float64(compactions))
	if compactions > 0 {
		rep.set("exec.compact_host_ms", mean(plain.byKind[kCompact]))
		rep.set("exec.compact_sim_ms", float64(plain.compact.sim.Microseconds())/1e3/float64(compactions))
	}
	if sel := plain.byKind[kSelect]; len(sel) > 0 {
		rep.set("exec.select_host_p50_us", 1e3*median(sel))
	}
	var dml []float64
	for _, k := range []stmtKind{kInsert, kUpdate, kDelete} {
		dml = append(dml, plain.byKind[k]...)
	}
	if len(dml) > 0 {
		rep.set("exec.dml_host_p50_us", 1e3*median(dml))
	}
	if ios := f.PageReads + f.PageWrites; ios > 0 {
		rep.set("exec.host_us_per_flash_io", 1e6*plain.wall.Seconds()/float64(ios))
	}
	rep.set("ram.high_water_bytes", float64(plain.ramHigh))
	if plain.grantN > 0 {
		rep.set("sched.grant_buffers_mean", float64(plain.grantSum)/float64(plain.grantN))
	}
	rep.set("sched.queue_wait_p99_ms", p99(plain.queueWaits))
	rep.set("delta.depth_peak_pages", float64(plain.deltaPeak))
	if plain.deltaCommits > 0 {
		rep.set("delta.pages_per_commit", float64(plain.deltaAppended)/float64(plain.deltaCommits))
	}

	c := plain.caches
	if lookups := c.resHits + c.resMisses; lookups > 0 {
		rep.set("cache.hit_rate", float64(c.resHits)/float64(lookups))
	}
	rep.set("cache.evictions", float64(c.resEvictions))
	rep.set("cache.invalidations", float64(c.resInvalidations))
	if lookups := c.pageHits + c.pageMisses; lookups > 0 {
		rep.set("pagecache.hit_rate", float64(c.pageHits)/float64(lookups))
	}
	rep.set("pagecache.evictions", float64(c.pageEvictions))

	// Operator costs: exact simulated milliseconds per statement. An
	// INSERT carries no operator rows and an explicit compaction no
	// trace, so their cost comes from the ledger into the DML and
	// Compact rows, and the rows still sum to sim_ms_per_stmt.
	for _, op := range execOperators {
		rep.set("exec.sim_ms."+op, float64(traced.opSimUs[op])/1e3/nt)
	}
	var inserts int64
	if len(traced.byKind[kInsert]) > 0 {
		inserts = traced.cost.sim.Microseconds() - traced.traceSimUs - traced.compact.sim.Microseconds()
	}
	rep.set("exec.sim_ms.Compact", float64(traced.compact.sim.Microseconds())/1e3/nt)
	rep.set("exec.sim_ms.DML", float64(traced.opSimUs["DML"]+inserts)/1e3/nt)

	hostPhases(rep, spans, nt)
}

// hostPhases reports the mean self time per statement of every engine
// phase, and the share of host time spent outside the exec phase.
func hostPhases(rep *report, spans *spanLog, statements float64) {
	self := spans.selfTimes()
	var total time.Duration
	for name, d := range self {
		if strings.HasPrefix(name, "stmt:") || name == "pace" {
			total += d
		}
	}
	for _, ph := range execPhases {
		rep.set("exec."+ph+"_us", float64(self[ph].Microseconds())/statements)
		total += self[ph]
	}
	if total > 0 {
		rep.set("exec.front_share", 1-float64(self["exec"]+self["pace"])/float64(total))
	}
	names := sortedKeys(self)
	sort.SliceStable(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var b strings.Builder
	for _, name := range names {
		if self[name] > 0 {
			fmt.Fprintf(&b, " %s=%.1fms", name, float64(self[name].Microseconds())/1e3)
		}
	}
	rep.notef("self time per span name:%s", b.String())
}
