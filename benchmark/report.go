package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one pass/fail verification the run performed.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// report is everything one run of one workload yields.
type report struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	// Attempted counts every statement executed after warm-up (the
	// verification pass and the measured pass); Failed counts those that
	// errored, answered differently from the oracle, or broke the leak
	// invariant. A failed check that is not about one statement (a
	// reconciliation, the final Leaked probe) adds one to Failed.
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Correct   bool                   `json:"correct"`
	Metrics   map[string]metricValue `json:"metrics"`
	Checks    []check                `json:"checks"`
	// Notes are the facts a reader needs beside the metrics: set-up and
	// warm-up time, sizing, sample counts, measured shares.
	Notes []string `json:"notes"`
}

func newReport(workload string, rc runConfig) *report {
	return &report{Workload: workload, Seed: rc.seed, Trace: rc.trace, Metrics: map[string]metricValue{}}
}

func (r *report) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// checkf records a verification; a failed one counts as one failure.
func (r *report) checkf(ok bool, name, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	if !ok {
		r.Failed++
	}
}

// set stores a declared metric; an undeclared name is a programming
// error the spec test would also catch, so it fails loudly here.
func (r *report) set(name string, v float64) {
	unit, ok := unitOf(name)
	if !ok {
		panic("benchmark: metric " + name + " is not declared in spec.go")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

func unitOf(name string) (string, bool) {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if m.Name == name {
				return m.Unit, true
			}
		}
	}
	return "", false
}

// finish fills every metric of the run's kind that the workload did not
// set with 0 (a layer the workload does not use reports no activity),
// drops metrics of the other kind, and fixes Correct.
func (r *report) finish() {
	want := endToEnd
	if r.Trace {
		want = perLayer
	}
	out := make(map[string]metricValue, len(want))
	for _, m := range want {
		if v, ok := r.Metrics[m.Name]; ok {
			out[m.Name] = v
		} else {
			out[m.Name] = metricValue{Unit: m.Unit}
		}
	}
	r.Metrics = out
	if r.Attempted < 1 {
		r.Attempted = 1
		r.Failed = 1
	}
	r.Correct = r.Failed == 0
}

// print writes the human-readable form: every metric by name and unit,
// then the checks and the notes.
func (r *report) print(w io.Writer) {
	kind := "end-to-end (untraced)"
	order := endToEnd
	if r.Trace {
		kind, order = "per-layer (traced)", perLayer
	}
	fmt.Fprintf(w, "== %s  seed %d  %s\n", r.Workload, r.Seed, kind)
	for _, m := range order {
		v := r.Metrics[m.Name]
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", m.Name, v.Value, v.Unit)
	}
	for _, c := range r.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "  [%s] %s: %s\n", mark, c.Name, c.Detail)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
}

// resultLine is the driver contract: the last line of standard output,
// one JSON object with exactly these keys.
func (r *report) resultLine() string {
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// writeJSON stores the machine-readable copy of one or more reports.
func writeJSON(path string, reps []*report) error {
	b, err := json.MarshalIndent(reps, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// sortedKeys returns the map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
