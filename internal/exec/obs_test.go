package exec

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"ghostdb/internal/obs"
)

// threeTableJoin is the paper's query Q (§6.4): a 3-table join with
// visible and hidden selections — the EXPLAIN ANALYZE acceptance shape.
const threeTableJoin = `SELECT T0.id, T1.id, T12.id, T1.v1 FROM T0, T1, T12 WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id AND T1.v1 < '0000000300' AND T12.h2 < '0000000100'`

// TestTraceSpansSumToSimTime is the EXPLAIN ANALYZE contract: the exec
// span's children (per-operator simulated costs plus the residual
// "other") sum to the query's Stats.SimTime within 1%.
func TestTraceSpansSumToSimTime(t *testing.T) {
	f := newFixture(t, 42, defaultCards())
	tr := obs.NewTrace(threeTableJoin)
	cfg := QueryConfig{}
	cfg.Trace = tr
	res, err := f.db.RunCtx(context.Background(), threeTableJoin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()

	root := tr.Snapshot()
	for _, name := range []string{"parse", "resolve", "plan", "admission", "exec"} {
		if _, ok := root.Find(name); !ok {
			t.Errorf("trace is missing a %q span", name)
		}
	}
	execSp, ok := root.Find("exec")
	if !ok {
		t.Fatal("no exec span")
	}
	var sum int64
	for _, c := range execSp.Children {
		sum += c.SimUs
	}
	simUs := res.Stats.SimTime.Microseconds()
	if simUs <= 0 {
		t.Fatalf("SimTime = %v, want > 0", res.Stats.SimTime)
	}
	diff := sum - simUs
	if diff < 0 {
		diff = -diff
	}
	if diff*100 > simUs {
		t.Fatalf("operator spans sum to %dµs, SimTime is %dµs (off by more than 1%%)", sum, simUs)
	}
	if execSp.SimUs != simUs {
		t.Errorf("exec span SimUs = %d, want %d", execSp.SimUs, simUs)
	}

	// The tree must round-trip as JSON (the /trace and EXPLAIN ANALYZE
	// wire format).
	blob, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back obs.SpanJSON
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
}

// TestScatterTraceHasLegSpans checks that a cross-token query's trace
// shows one scatter leg per part plus the merge step.
func TestScatterTraceHasLegSpans(t *testing.T) {
	f := newForestFixture(t, 11, map[string]int{
		"T0": 120, "T1": 40, "T2": 30, "T11": 12, "T12": 12,
		"U0": 60, "U1": 10,
	}, 2)
	sql := `SELECT T12.id, U1.v1 FROM T12, U1 WHERE T12.h1 < '0000000200' AND U1.h2 < '0000000300'`
	tr := obs.NewTrace(sql)
	cfg := QueryConfig{}
	cfg.Trace = tr
	res, err := f.db.RunCtx(context.Background(), sql, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Scatter != 2 {
		t.Fatalf("Scatter = %d, want 2", res.Stats.Scatter)
	}
	tr.Finish()
	root := tr.Snapshot()
	legs := 0
	for _, c := range root.Children {
		if c.Name == "scatter" {
			legs++
		}
	}
	if legs != 2 {
		t.Fatalf("trace has %d scatter legs, want 2", legs)
	}
	if _, ok := root.Find("merge"); !ok {
		t.Error("trace is missing the merge span")
	}
}

// TestQueueWaitAndSlotOccupancyObserved checks the admission-side
// instruments: after real traffic, the per-shard queue-wait and
// slot-occupancy histograms hold samples, Stats.QueueWait is populated,
// and the grant histogram saw the session's buffers.
func TestQueueWaitAndSlotOccupancyObserved(t *testing.T) {
	f := newFixture(t, 42, defaultCards())
	cfg := QueryConfig{}
	res, err := f.db.RunCtx(context.Background(), threeTableJoin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.QueueWait < 0 {
		t.Errorf("QueueWait = %v, want >= 0", res.Stats.QueueWait)
	}
	reg := f.db.Metrics()
	qw := reg.FindHistogram("ghostdb_sched_queue_wait_seconds", obs.L("shard", "0"))
	if qw == nil {
		t.Fatal("queue-wait histogram not registered")
	}
	if qw.Count() == 0 {
		t.Error("queue-wait histogram saw no admissions")
	}
	so := reg.FindHistogram("ghostdb_slot_occupancy_seconds", obs.L("shard", "0"))
	if so == nil {
		t.Fatal("slot-occupancy histogram not registered")
	}
	if so.Count() == 0 {
		t.Error("slot-occupancy histogram saw no sessions")
	}
	if g := reg.FindHistogram("ghostdb_session_grant_buffers"); g == nil || g.Count() == 0 {
		t.Error("grant histogram saw no sessions")
	}
	if h := reg.FindHistogram("ghostdb_query_sim_seconds"); h == nil || h.Count() == 0 {
		t.Error("sim-time histogram saw no queries")
	}
}

// TestSlowLogRecordsQuery checks the end-to-end slow-log path with a
// threshold every simulated query clears.
func TestSlowLogRecordsQuery(t *testing.T) {
	f := newFixture(t, 42, defaultCards())
	f.db.slow = obs.NewSlowLog(time.Nanosecond, 16)
	if _, err := f.db.RunCtx(context.Background(), threeTableJoin, QueryConfig{}); err != nil {
		t.Fatal(err)
	}
	entries := f.db.SlowLog().Entries()
	if len(entries) != 1 {
		t.Fatalf("slow log has %d entries, want 1", len(entries))
	}
	e := entries[0]
	if !strings.Contains(e.Query, "select") {
		t.Errorf("slow-log query text = %q", e.Query)
	}
	if e.SimUs <= 0 {
		t.Errorf("SimUs = %d, want > 0", e.SimUs)
	}
	if len(e.Spans) == 0 {
		t.Error("slow-log entry has no span summary")
	}
	if e.GrantBuffers <= 0 {
		t.Errorf("GrantBuffers = %d, want > 0", e.GrantBuffers)
	}
}

// TestMetricsRenderAfterTraffic renders the registry after real queries
// and checks the acceptance families are present.
func TestMetricsRenderAfterTraffic(t *testing.T) {
	f := newFixture(t, 42, defaultCards())
	if _, err := f.db.RunCtx(context.Background(), threeTableJoin, QueryConfig{}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := f.db.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, fam := range []string{
		"ghostdb_queries_total",
		"ghostdb_query_sim_seconds_bucket",
		"ghostdb_sched_queue_wait_seconds_bucket",
		"ghostdb_slot_occupancy_seconds_bucket",
		"ghostdb_session_grant_buffers_bucket",
		"ghostdb_sched_admissions_total",
		"ghostdb_token_flash_reads_total",
		"ghostdb_token_bus_up_bytes_total",
	} {
		if !strings.Contains(text, fam) {
			t.Errorf("rendered metrics are missing %s", fam)
		}
	}
}

// TestConcurrentTracedSessions runs 16 concurrent traced queries on one
// engine — the -race CI job turns this into the span-emission data-race
// check the telemetry layer must pass.
func TestConcurrentTracedSessions(t *testing.T) {
	f := newFixture(t, 42, defaultCards())
	f.db.slow = obs.NewSlowLog(time.Nanosecond, 8)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	traces := make([]*obs.Trace, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sql := testQueries[i%len(testQueries)]
			tr := obs.NewTrace(sql)
			traces[i] = tr
			cfg := QueryConfig{}
			cfg.Trace = tr
			_, errs[i] = f.db.RunCtx(context.Background(), sql, cfg)
			tr.Finish()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	for i, tr := range traces {
		if _, err := tr.JSON(); err != nil {
			t.Errorf("trace %d does not marshal: %v", i, err)
		}
	}
	var sb strings.Builder
	if err := f.db.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
}
