package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors the driver's BENCHMARK.json contract.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestSpecMatchesBenchmarkJSON holds spec.go and the root BENCHMARK.json
// to each other and both to the driver's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	// 4 + 22 runs per workload, each with its set-up, inside 3420 s.
	if runs := 4 + 22*len(bj.Workloads); runs*(bj.RunSeconds+12) > 3420-120 {
		t.Errorf("%d runs of %d s plus ~12 s of set-up, warm-up and verification do not fit the driver's 3420 s", runs, bj.RunSeconds)
	}

	names := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if names[n] {
			t.Errorf("name %q is used twice", n)
		}
		names[n] = true
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.Name)
		if got := bj.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go %q / %q", i, got, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go", len(bj.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range endToEnd {
		checkName(m.Name)
		got := bj.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, spec.go %+v", i, got, m)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bad unit, direction or bound: %+v", m.Name, m)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go (limit 128)", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		checkName(m.Name)
		got := bj.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, spec.go %+v", i, got, m)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Moves == "" {
			t.Errorf("per-layer %s: bad unit or direction, or no prediction of what it moves: %+v", m.Name, m)
		}
	}
}

// tinyRC is a run short enough for `go test`.
func tinyRC(seed int64, trace bool) runConfig {
	rc := runConfig{seed: seed, seconds: 0.8, trace: trace, tiny: true}
	if trace {
		rc.spans = newSpanLog()
	}
	return rc
}

var closedDefs = []closedDef{paperqDef, oltpDef, writeMixDef, openVerifyDef}

// TestStreamsArePureFunctionsOfSeed: the same seed gives byte-identical
// statements, another seed different ones.
func TestStreamsArePureFunctionsOfSeed(t *testing.T) {
	for _, def := range closedDefs {
		fx, err := def.build(true)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		take := func(seed int64) string {
			var b strings.Builder
			s := def.newStream(seed, fx)
			for i := 0; i < 400; i++ {
				st := s.next()
				b.WriteString(st.sql)
				b.WriteByte(byte(st.cfg.Strategy))
				b.WriteByte('\n')
			}
			return b.String()
		}
		if take(7) != take(7) {
			t.Errorf("%s: the same seed produced two different streams", def.name)
		}
		if take(7) == take(8) {
			t.Errorf("%s: seeds 7 and 8 produced the same stream", def.name)
		}
		if err := fx.close(); err != nil {
			t.Error(err)
		}
	}
}

// TestCountersRepeatExactly: two engines built from one seed, driven by
// one client through the same number of chunks, report identical
// statements, row counts and exact flash/bus/simulated-time counters.
func TestCountersRepeatExactly(t *testing.T) {
	for _, def := range []closedDef{paperqDef, oltpDef, writeMixDef} {
		var passes [2]*pass
		for i := range passes {
			rc := tinyRC(3, false)
			fx, err := def.build(true)
			if err != nil {
				t.Fatalf("%s: %v", def.name, err)
			}
			r := newRunner(def, rc, fx)
			p, err := r.runPass(func(chunks int, _ time.Duration) bool { return chunks >= 3 }, nil)
			if err != nil {
				t.Fatalf("%s: %v", def.name, err)
			}
			passes[i] = p
			if err := r.fx.close(); err != nil {
				t.Error(err)
			}
		}
		a, b := passes[0], passes[1]
		if a.cost != b.cost {
			t.Errorf("%s: exact counters differ between two runs of one seed:\n%+v\n%+v", def.name, a.cost, b.cost)
		}
		if len(a.log) != len(b.log) {
			t.Fatalf("%s: %d vs %d statements", def.name, len(a.log), len(b.log))
		}
		for i := range a.log {
			if a.log[i].st.sql != b.log[i].st.sql || a.log[i].count != b.log[i].count {
				t.Fatalf("%s: statement %d differs: %q (%d rows) vs %q (%d rows)", def.name, i,
					a.log[i].st.sql, a.log[i].count, b.log[i].st.sql, b.log[i].count)
			}
			if a.log[i].err != nil {
				t.Errorf("%s: %s: %v", def.name, a.log[i].st.sql, a.log[i].err)
			}
		}
	}
}

// TestEveryWorkloadReportsEveryMetric runs the whole pipeline of every
// workload at tiny scale, untraced and traced: no failed check, exactly
// the declared metric set, every end-to-end metric non-zero, and a
// result line with exactly the driver's keys.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := w.run(tinyRC(5, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			for _, c := range rep.Checks {
				if !c.OK {
					t.Errorf("%s trace=%v: check %s failed: %s", w.Name, trace, c.Name, c.Detail)
				}
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d; %v", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed, rep.Notes)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := rep.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q, want %q", w.Name, trace, m.Name, v.Unit, m.Unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, m.Name, v.Value)
				}
			}
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(rep.resultLine()), &line); err != nil {
				t.Fatal(err)
			}
			if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
				t.Errorf("result line keys: %v", sortedKeys(line))
			}
		}
	}
}

// TestCompareAppliesBoundsAndDirection: a metric may move by its bound
// in the bad direction and no further; moving the good way never fails.
func TestCompareAppliesBoundsAndDirection(t *testing.T) {
	bound := map[string]float64{}
	for _, m := range endToEnd {
		bound[m.Name] = m.Bound
	}
	qb, pb := bound["goodput_qps"], bound["p50_ms"] // higher is better, lower is better
	mk := func(qps, p50 float64) []*report {
		r := &report{Workload: "paperq", Metrics: map[string]metricValue{}}
		for _, m := range endToEnd {
			r.Metrics[m.Name] = metricValue{Value: 1, Unit: m.Unit}
		}
		r.Metrics["goodput_qps"] = metricValue{Value: qps, Unit: "1/s"}
		r.Metrics["p50_ms"] = metricValue{Value: p50, Unit: "ms"}
		return []*report{r}
	}
	var out bytes.Buffer
	for _, tc := range []struct {
		name     string
		qps, p50 float64
		want     int
	}{
		{"unchanged", 100, 10, 0},
		{"qps up 50%, p50 down 50%", 150, 5, 0},
		{"qps down by just under its bound", 100 * (1 - qb + 0.01), 10, 0},
		{"qps down by just over its bound", 100 * (1 - qb - 0.01), 10, 1},
		{"p50 up by just under its bound", 100, 10 * (1 + pb - 0.01), 0},
		{"p50 up by just over its bound", 100, 10 * (1 + pb + 0.01), 1},
		{"both worse", 100 * (1 - qb - 0.05), 10 * (1 + pb + 0.05), 2},
	} {
		if got := compareReports(&out, mk(100, 10), mk(tc.qps, tc.p50)); got != tc.want {
			t.Errorf("%s: %d regressions, want %d\n%s", tc.name, got, tc.want, out.String())
		}
		out.Reset()
	}
	if got := compareReports(&out, mk(100, 10), nil); got != 1 {
		t.Errorf("a workload missing from the candidate must count as a regression, got %d", got)
	}
}

// TestSelfTimes: a span's self time is its duration minus what its
// children cover, overlapping children counted once.
func TestSelfTimes(t *testing.T) {
	l := newSpanLog()
	at := func(ms int) time.Time { return l.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := l.add(-1, 0, "stmt", at(0), at(100), 0)
	l.add(root, 0, "plan", at(10), at(30), 0)
	l.add(root, 0, "leg", at(40), at(80), 0)
	l.add(root, 0, "leg", at(60), at(90), 0) // overlaps the first leg
	self := l.selfTimes()
	if got := self["stmt"]; got != 30*time.Millisecond { // 100 - 20 - (90-40)
		t.Errorf("stmt self time %v, want 30ms", got)
	}
	if got := self["leg"]; got != 70*time.Millisecond {
		t.Errorf("leg self time %v, want 70ms", got)
	}
}
