package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"ghostdb/internal/datagen"
	"ghostdb/internal/exec"
	"ghostdb/internal/obs"
)

// open-mix: open-loop Poisson arrivals at fixed 600, 1 200 and 1 800
// statements per second on a fresh engine per rate: one dispatcher
// goroutine sleeps to each scheduled arrival and starts one goroutine
// per statement, and every latency is timed from the *scheduled*
// arrival, so a stall charges the statements it delayed. The matrix and
// engine options are internal/experiments/slo.go's: the two-tree forest
// at scale 0.005 on two tokens, simulation paced x8, 8 sessions, a
// 15 ms shed bound, automatic compaction at 16 delta pages, and a 60 ms
// p99 SLO with at most 5% shed.
//
//	50%  Zipf(1.2) point lookups on S0/S1
//	20%  hidden-attribute scans of C0/C1
//	15%  cross-tree COUNT(*) joins (one scatter leg per token)
//	10%  hidden range UPDATEs on a column no read touches
//	 5%  zero-match DELETEs (one pad page each)
//
// The writes are answer-invariant on purpose: with concurrent clients
// the commit order is not reproducible, and this way every read has one
// right answer whatever the interleaving. Because the engine is paced,
// wall time here measures the *modelled* device: simulated-cost and
// scheduling changes show here, host-CPU changes on the three unpaced
// workloads. Devices keep slo.go's 2 048 blocks, which one window's
// writes do not fill (checked: no valid page is ever relocated).
const (
	openScale       = 0.005
	openTinyScale   = 0.001
	openDevicePages = 2048 * 64
	openSessions    = 8
	openPace        = 8
	openSLO         = 60 * time.Millisecond
	openMaxWait     = 15 * time.Millisecond
	openMaxShed     = 0.05
	openCompactAt   = 16
	// A window whose dispatcher ran later than openLateLimitMs at its
	// p99 did not offer the load it claims — the host stalled the
	// generator itself — so the untraced run measures it again, at most
	// openRetries times per run, and keeps the attempt that ran on time.
	// An undisturbed window reads 2-3.5 ms here (an idle time.Sleep on
	// the reference host is already 1.5-2 ms late at its p99).
	openLateLimitMs = 8.0
	openRetries     = 3
)

// openRates are the offered loads, statements per second. The p50 is
// read at the first (unloaded); goodput, shed fraction and the p99 of
// the admitted statements at the third (overload), where the shedder
// bounds the queue and the tail repeats to 7% across seeds. The p99
// near the knee (the second rate) swings 17% with the arrival pattern
// and is a per-layer metric.
var openRates = []float64{600, 1200, 1800}

// buildOpen builds one two-token engine; compactAt is the delta depth
// that starts a background compaction (negative: never).
func buildOpen(tiny bool, compactAt int) (*fixture, error) {
	scale := openScale
	if tiny {
		scale = openTinyScale
	}
	return buildForest(scale, 2, openDevicePages, exec.Options{
		Shards:               2,
		MaxConcurrentQueries: openSessions,
		PaceSimulation:       openPace,
		CompactThreshold:     compactAt,
		MaxQueueWait:         openMaxWait,
		SLOTarget:            openSLO,
	})
}

// openStream renders slo.go's statement matrix from a seeded generator.
type openStream struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	s, c [2]int // table indexes of S0,S1 and C0,C1
	i    int
}

func newOpenStream(seed int64, fx *fixture) stream {
	rng := rand.New(rand.NewSource(seed))
	o := &openStream{rng: rng}
	for k := 0; k < 2; k++ {
		s, _ := fx.db.Sch.Lookup(fmt.Sprintf("S%d", k))
		c, _ := fx.db.Sch.Lookup(fmt.Sprintf("C%d", k))
		o.s[k], o.c[k] = s.Index, c.Index
	}
	o.zipf = rand.NewZipf(rng, 1.2, 1, uint64(fx.db.Rows(o.s[0])-1))
	return o
}

func (o *openStream) next() stmt {
	k := o.i % 2
	o.i++
	svs := []float64{0.05, 0.1, 0.2}
	switch u := o.rng.Float64(); {
	case u < 0.50:
		return stmt{kind: kSelect, table: o.s[k], sql: fmt.Sprintf(
			"SELECT S%d.id, S%d.v1 FROM S%d WHERE S%d.id = %d", k, k, k, k, o.zipf.Uint64())}
	case u < 0.70:
		return stmt{kind: kSelect, table: o.c[k], sql: fmt.Sprintf(
			"SELECT C%d.id, C%d.v1 FROM C%d WHERE C%d.h2 < '%s'", k, k, k, k, datagen.SelValue(svs[o.rng.Intn(len(svs))]))}
	case u < 0.85:
		return stmt{kind: kSelect, table: o.s[0], scatter: true, sql: fmt.Sprintf(
			"SELECT COUNT(*) FROM S0, S1 WHERE S0.v1 < '%s' AND S1.h2 < '%s'", datagen.SelValue(0.02), datagen.SelValue(0.05))}
	case u < 0.95:
		lo := o.rng.Intn(80)
		return stmt{kind: kUpdate, table: o.s[k], sql: fmt.Sprintf(
			"UPDATE S%d SET h4 = '%s' WHERE S%d.h5 BETWEEN '%s' AND '%s'", k,
			datagen.PadValue(o.rng.Intn(datagen.Domain)), k, datagen.SelValue(float64(lo)/100), datagen.SelValue(float64(lo+2)/100))}
	default:
		return stmt{kind: kDelete, table: o.c[k], sql: fmt.Sprintf("DELETE FROM C%d WHERE C%d.id >= 1000000000", k, k)}
	}
}

// openVerifyDef lets the closed-loop runner drive the same stream one
// statement at a time for the verification pass. Background compaction
// is off there: the pass reads each token's counters and audit trail
// between statements, which a concurrent compaction session would race.
var openVerifyDef = closedDef{name: "open-mix", newStream: newOpenStream, chunk: 200,
	build: func(tiny bool) (*fixture, error) { return buildOpen(tiny, -1) }}

// arrival is one statement of an open-loop window as it ended.
type arrival struct {
	st     stmt
	wallMs float64 // from the scheduled arrival
	lateMs float64 // how late the dispatcher started it
	count  int64
	shed   bool
	err    error
	stats  exec.Stats
}

// window is one rate's measured interval.
type window struct {
	rate     float64
	seconds  float64
	arrivals []arrival // in scheduled order
	setup    time.Duration
	cpu      time.Duration
	alloc    uint64
	storage  float64 // flash in use / user bytes after the window settled
	moves    uint64
	leaked   bool
}

// runWindow offers the stream at one Poisson rate for the given time on
// a fresh engine.
func runWindow(rc runConfig, rate float64, seconds float64, spans *spanLog) (*window, error) {
	fx, err := buildOpen(rc.tiny, openCompactAt)
	if err != nil {
		return nil, err
	}
	defer func() { _ = fx.close() }()
	// A per-rate generator, as in slo.go: the same rate always offers
	// the same statements at the same instants.
	strm := newOpenStream(rc.seed*1000+int64(rate), fx)
	rng := rand.New(rand.NewSource(rc.seed*1000 + int64(rate) + 1))
	n := int(rate * seconds)
	w := &window{rate: rate, seconds: seconds, arrivals: make([]arrival, n), setup: fx.setup}
	offsets := make([]time.Duration, n)
	var t float64
	for i := range offsets {
		t += rng.ExpFloat64() / rate
		offsets[i] = time.Duration(t * float64(time.Second))
		w.arrivals[i].st = strm.next()
	}
	share := max(fx.tokens()[0].RAMBuffers()/openSessions, 1)

	var wg sync.WaitGroup
	before := readHostUsage()
	start := time.Now()
	for i := range w.arrivals {
		due := start.Add(offsets[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		a := &w.arrivals[i]
		a.lateMs = float64(time.Since(due).Nanoseconds()) / 1e6
		wg.Add(1)
		go func(seq int) {
			defer wg.Done()
			cfg := exec.QueryConfig{WantBuffers: share}
			var tr *obs.Trace
			traceStart := time.Now()
			if spans != nil {
				tr = obs.NewTrace(a.st.kind.String())
				cfg.Trace = tr
			}
			t0 := time.Now()
			res, err := fx.db.RunCtx(context.Background(), a.st.sql, cfg)
			t1 := time.Now()
			a.wallMs = float64(t1.Sub(due).Nanoseconds()) / 1e6
			switch {
			case errors.Is(err, exec.ErrOverloaded):
				a.shed = true
			case err != nil:
				a.err = err
			default:
				a.stats = res.Stats
				a.count = int64(len(res.Rows))
				if len(res.Rows) == 1 && len(res.Columns) == 1 && (res.Columns[0] == "count(*)" || a.st.kind != kSelect) {
					a.count = res.Rows[0][0].I
				}
			}
			if tr != nil {
				tr.Finish()
				spans.addStatement(seq, a.st.kind.String(), t0, t1, traceStart, tr.Snapshot())
			}
		}(i)
	}
	wg.Wait()
	after := readHostUsage()
	w.cpu, w.alloc = after.cpu-before.cpu, after.allocBytes-before.allocBytes
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := fx.db.WaitCompactions(ctx); err != nil {
		return nil, fmt.Errorf("open-mix: compactions did not settle: %w", err)
	}
	w.storage = float64(fx.flashBytesInUse()) / float64(fx.userBytes)
	for _, a := range w.arrivals {
		w.moves += a.stats.Flash.GCPageMoves
	}
	w.leaked = fx.db.Leaked()
	return w, nil
}

// lateP99 is the p99 of the dispatcher's lateness over the window.
func (w *window) lateP99() float64 {
	lates := make([]float64, len(w.arrivals))
	for i, a := range w.arrivals {
		lates[i] = a.lateMs
	}
	return p99(lates)
}

// walls returns the wall latencies of the admitted, successful
// statements in scheduled order.
func (w *window) walls() []float64 {
	var out []float64
	for _, a := range w.arrivals {
		if !a.shed && a.err == nil {
			out = append(out, a.wallMs)
		}
	}
	return out
}

// sheds counts the arrivals the engine refused with ErrOverloaded.
func (w *window) sheds() int {
	n := 0
	for _, a := range w.arrivals {
		if a.shed {
			n++
		}
	}
	return n
}

func (w *window) shedFrac() float64 { return float64(w.sheds()) / float64(len(w.arrivals)) }

// goodput is completions inside the SLO per second of window.
func (w *window) goodput() float64 {
	n := 0
	for _, ms := range w.walls() {
		if ms <= float64(openSLO.Milliseconds()) {
			n++
		}
	}
	return float64(n) / w.seconds
}

// inSLO applies the sustainability rule to the window.
func (w *window) inSLO() bool {
	for _, a := range w.arrivals {
		if a.err != nil {
			return false
		}
	}
	return w.shedFrac() <= openMaxShed &&
		p99(w.walls()) <= float64(openSLO.Milliseconds())
}

// checkAnswers compares every completed statement with the oracle. The
// writes of the matrix change no read's answer and their own affected
// counts do not depend on commit order, so one oracle serves whatever
// interleaving the run produced: all the reads first (memoized per
// text), then the writes.
func (w *window) checkAnswers(orc *oracle, r *runner) (failed int) {
	for _, writes := range []bool{false, true} {
		for _, a := range w.arrivals {
			switch {
			case a.shed || (a.st.kind != kSelect) != writes:
			case a.err != nil:
				failed++
				r.noteFailure(a.st, a.err.Error())
			default:
				n, err := orc.count(a.st)
				if writes {
					n, err = orc.apply(a.st)
				}
				if err != nil || n != a.count {
					failed++
					r.noteFailure(a.st, fmt.Sprintf("engine reported %d rows, oracle %d (%v)", a.count, n, err))
				}
			}
		}
	}
	return failed
}

func runOpenMix(rc runConfig) (*report, error) {
	rep := newReport("open-mix", rc)

	// Verification pass, on its own engine so the measured ones start
	// untouched: the stream one statement at a time, audit on, every
	// answer compared in full.
	vfx, err := openVerifyDef.build(rc.tiny)
	if err != nil {
		return nil, fmt.Errorf("open-mix: set-up: %w", err)
	}
	vr := newRunner(openVerifyDef, rc, vfx)
	orc := newOracle(vfx.db.Sch, vfx.oracle)
	if err := vr.verifyPass(rep, orc); err != nil {
		return nil, err
	}
	vleaked := vfx.db.Leaked()
	if err := vfx.close(); err != nil {
		return nil, err
	}

	// Warm-up: a short window nobody measures, so the first measured
	// rate does not pay for heap growth and idle processors.
	per := rc.seconds / float64(len(openRates))
	if rc.trace {
		per = rc.seconds / float64(len(openRates)+1)
	}
	warmStart := time.Now()
	if _, err := runWindow(rc, openRates[0], min(per, 0.5), nil); err != nil {
		return nil, err
	}
	rep.notef("warm-up: one unmeasured %.0f/s window, %.2fs", openRates[0], time.Since(warmStart).Seconds())

	heap := startHeapSampler(100 * time.Millisecond)
	var plain600 *window
	if rc.trace {
		// The untraced twin of the first traced window, for the tracing
		// overhead in CPU per statement (wall time is paced).
		if plain600, err = runWindow(rc, openRates[0], per, nil); err != nil {
			return nil, err
		}
	}
	var wins []*window
	retries := 0
	for _, rate := range openRates {
		w, err := runWindow(rc, rate, per, rc.spans)
		if err != nil {
			return nil, err
		}
		// The traced run keeps its first attempt: its spans are already
		// in the log, and its metrics carry no bound.
		for !rc.trace && w.lateP99() > openLateLimitMs && retries < openRetries {
			retries++
			again, err := runWindow(rc, rate, per, nil)
			if err != nil {
				return nil, err
			}
			rep.notef("rate %.0f/s measured again: the dispatcher ran %.1f ms late at p99 (limit %.0f ms), then %.1f ms",
				rate, w.lateP99(), openLateLimitMs, again.lateP99())
			if again.lateP99() < w.lateP99() {
				w = again
			}
		}
		wins = append(wins, w)
	}
	heapMB := heap.Stop()

	var setups, storage, lates, queueWaits []float64
	var sim, cpu time.Duration
	var alloc, moves uint64
	var completed, offered, grantSum, grantN, ramHigh int
	var flashTotal sample
	leaked := vleaked
	for _, w := range wins {
		failed := w.checkAnswers(orc, vr)
		rep.Attempted += len(w.arrivals)
		rep.Failed += failed
		setups = append(setups, w.setup.Seconds())
		storage = append(storage, w.storage)
		cpu += w.cpu
		alloc += w.alloc
		moves += w.moves
		offered += len(w.arrivals)
		leaked = leaked || w.leaked
		for _, a := range w.arrivals {
			lates = append(lates, a.lateMs)
			if a.shed || a.err != nil {
				continue
			}
			completed++
			sim += a.stats.SimTime
			flashTotal.Flash = flashTotal.Flash.Add(a.stats.Flash)
			flashTotal.BusDown += a.stats.BusDown
			flashTotal.BusUp += a.stats.BusUp
			queueWaits = append(queueWaits, float64(a.stats.QueueWait.Nanoseconds())/1e6)
			ramHigh = max(ramHigh, a.stats.RAMHigh)
			if a.stats.GrantBuffers > 0 {
				grantSum += a.stats.GrantBuffers
				grantN++
			}
		}
		rep.notef("rate %.0f/s for %.2fs: %d offered, shed %.2f%%, p50 %.3f ms, p99 %.3f ms, goodput %.1f/s, in SLO %v",
			w.rate, w.seconds, len(w.arrivals), 100*w.shedFrac(), median(w.walls()),
			p99(w.walls()), w.goodput(), w.inSLO())
	}
	lateP99 := p99(lates)
	rep.notef("dispatcher lateness p99 %.3f ms over the kept windows", lateP99)
	rep.checkf(moves == 0, "ftl-relocation", "%d valid pages relocated by the FTL", moves)
	rep.checkf(!leaked, "leaked-grants", "db.Leaked() on the %d engines of the run: %v", len(wins)+2, leaked)
	for _, f := range vr.failures {
		rep.notef("failed: %s", f)
	}

	w600, w1200, w1800 := wins[0], wins[1], wins[2]
	if !rc.trace {
		rep.set("setup_s", median(setups))
		rep.set("goodput_qps", w1800.goodput())
		rep.set("p50_ms", median(w600.walls()))
		rep.set("p99_ms", p99(w1800.walls()))
		rep.set("sim_ms_per_stmt", float64(sim.Microseconds())/1e3/float64(completed))
		rep.set("cpu_ms_per_stmt", float64(cpu.Microseconds())/1e3/float64(offered))
		rep.set("alloc_kb_per_stmt", float64(alloc)/1024/float64(offered))
		rep.set("peak_heap_mb", heapMB[len(heapMB)-1])
		rep.notef("HeapInuse p50 %.1f p90 %.1f max %.1f MB over %d samples, HeapSys %.1f MB",
			quantile(heapMB, 0.5), quantile(heapMB, 0.9), heapMB[len(heapMB)-1], len(heapMB), float64(heapSys())/(1<<20))
		rep.set("storage_amp", median(storage))
		rep.finish()
		return rep, nil
	}

	maxRate := 0.0
	for _, w := range wins {
		if w.inSLO() {
			maxRate = w.rate
		}
	}
	sheds := 0
	for _, w := range wins {
		sheds += w.sheds()
	}
	n := float64(completed)
	rep.set("loadgen.max_rate_in_slo", maxRate)
	rep.set("loadgen.late_p99_ms", lateP99)
	rep.set("loadgen.p99_ms_r600", p99(w600.walls()))
	rep.set("loadgen.p99_ms_r1200", p99(w1200.walls()))
	rep.set("sched.shed_frac_r1800", w1800.shedFrac())
	rep.set("sched.sheds", float64(sheds))
	rep.set("sched.queue_wait_p99_ms", p99(queueWaits))
	rep.set("ram.high_water_bytes", float64(ramHigh))
	if grantN > 0 {
		rep.set("sched.grant_buffers_mean", float64(grantSum)/float64(grantN))
	}
	rep.set("flash.page_reads_per_stmt", float64(flashTotal.Flash.PageReads)/n)
	rep.set("flash.page_writes_per_stmt", float64(flashTotal.Flash.PageWrites)/n)
	rep.set("flash.bytes_to_ram_per_stmt", float64(flashTotal.Flash.BytesToRAM)/n)
	rep.set("flash.erases_per_stmt", float64(flashTotal.Flash.BlockErases)/n)
	rep.set("bus.down_bytes_per_stmt", float64(flashTotal.BusDown)/n)
	rep.set("bus.up_bytes_per_stmt", float64(flashTotal.BusUp)/n)
	opSimUs := map[string]int64{}
	for _, s := range rc.spans.spans {
		if name, ok := strings.CutPrefix(s.Name, "sim:"); ok {
			opSimUs[name] += s.SimUs
		}
	}
	for _, op := range execOperators {
		rep.set("exec.sim_ms."+op, float64(opSimUs[op])/1e3/n)
	}
	hostPhases(rep, rc.spans, float64(offered))
	perStmt := func(w *window) float64 { return float64(w.cpu.Nanoseconds()) / float64(len(w.arrivals)) }
	rep.set("obs.trace_overhead_frac", perStmt(w600)/perStmt(plain600)-1)
	rep.set("obs.span_coverage_frac", rc.spans.coverage())
	rep.notef("tracing overhead is CPU per statement at %.0f/s, traced over untraced (wall time is paced); the exact counters are sums of Stats over completed statements, background compactions excluded", w600.rate)
	pfx, err := openVerifyDef.build(rc.tiny)
	if err != nil {
		return nil, err
	}
	defer func() { _ = pfx.close() }()
	sample := make([]stmt, len(w600.arrivals))
	for i, a := range w600.arrivals {
		sample[i] = a.st
	}
	rep.set("index.storage_pages", float64(pfx.indexPages()))
	if err := runProbes(rep, rc, pfx, sample); err != nil {
		return nil, err
	}
	rep.finish()
	return rep, nil
}
