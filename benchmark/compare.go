package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// worsening returns by what share of the baseline the candidate is
// worse (negative when it is better), in the metric's own direction.
func worsening(m metricDef, base, cand float64) float64 {
	if base == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (base - cand) / base
	}
	return (cand - base) / base
}

// compareReports applies every end-to-end bound to each workload both
// files report untraced, prints one row per pairing and returns the
// number of regressions. Reports of one workload are matched in order.
func compareReports(w io.Writer, base, cand []*report) int {
	regressions := 0
	used := map[int]bool{}
	for _, b := range base {
		if b.Trace {
			continue
		}
		var c *report
		for i, r := range cand {
			if !used[i] && !r.Trace && r.Workload == b.Workload {
				c, used[i] = r, true
				break
			}
		}
		if c == nil {
			fmt.Fprintf(w, "%-12s missing from the candidate\n", b.Workload)
			regressions++
			continue
		}
		if c.Failed > b.Failed {
			fmt.Fprintf(w, "%-12s %-20s %d failed statements, baseline %d  REGRESSION\n", b.Workload, "failed", c.Failed, b.Failed)
			regressions++
		}
		for _, m := range endToEnd {
			bv, cv := b.Metrics[m.Name].Value, c.Metrics[m.Name].Value
			worse := worsening(m, bv, cv)
			verdict := "ok"
			if worse > m.Bound {
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(w, "%-12s %-20s %14.6g -> %14.6g %-6s %+7.2f%% worse (bound %4.1f%%, %s is better)  %s\n",
				b.Workload, m.Name, bv, cv, m.Unit, 100*worse, 100*m.Bound, m.Better, verdict)
		}
	}
	return regressions
}

func readReports(path string) ([]*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reps []*report
	if err := json.Unmarshal(b, &reps); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return reps, nil
}

// compareFiles is compareReports over two -json files.
func compareFiles(w io.Writer, basePath, candPath string) (int, error) {
	base, err := readReports(basePath)
	if err != nil {
		return 0, err
	}
	cand, err := readReports(candPath)
	if err != nil {
		return 0, err
	}
	return compareReports(w, base, cand), nil
}
