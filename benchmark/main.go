// Command benchmark is GhostDB's one benchmark for both clocks: the
// simulated clock of the Table 1 cost model and the host clock of the
// simulator itself. It defines four named workloads, the end-to-end
// metrics a user of the system sees (with the bound by which each may
// worsen) and the per-layer metrics of a traced run; BENCHMARK.json at
// the repository root declares the same names for the driver. It
// verifies every answer against internal/ref and the leak invariant on
// the uplink, and claims no gain. See README.md.
//
//	bash benchmark/run.sh                                   # everything
//	bash benchmark/run.sh --workload paperq --seed 7 --seconds 10 --trace 0
//	bash benchmark/run.sh -compare before.json after.json   # apply the bounds
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workload := flag.String("workload", "", "workload to run (default: all of them)")
	seed := flag.Int64("seed", 1, "generator seed: data and statement stream are pure functions of it")
	seconds := flag.Float64("seconds", 10, "length of the measured section in seconds")
	trace := flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; default both")
	jsonOut := flag.String("json", "", "also write the reports to this file as JSON")
	spanDir := flag.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its span files to")
	compare := flag.Bool("compare", false, "compare two -json files (baseline, candidate) under the end-to-end bounds instead of running")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two files: baseline.json candidate.json")
			return 2
		}
		regressions, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if regressions > 0 {
			return 1
		}
		return 0
	}
	if flag.NArg() > 0 || *seconds <= 0 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -help")
		return 2
	}

	var selected []workloadDef
	for _, w := range workloads {
		if *workload == "" || *workload == w.Name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	modes := []bool{false, true}
	if *trace >= 0 {
		modes = []bool{*trace == 1}
	}

	var reports []*report
	failed := false
	for _, w := range selected {
		for _, traced := range modes {
			rc := runConfig{seed: *seed, seconds: *seconds, trace: traced}
			if traced {
				rc.spans = newSpanLog()
			}
			rep, err := w.run(rc)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
				return 1
			}
			if traced {
				path, err := rc.spans.write(*spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.Name, *seed))
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
					return 1
				}
				rep.notef("%d spans written to %s", len(rc.spans.spans), path)
			}
			rep.print(os.Stdout)
			reports = append(reports, rep)
			failed = failed || !rep.Correct
		}
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, reports); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	// The driver reads the last line of standard output.
	fmt.Println(reports[len(reports)-1].resultLine())
	if failed {
		return 1
	}
	return 0
}
