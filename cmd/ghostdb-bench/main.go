// Command ghostdb-bench regenerates the tables and figures of the GhostDB
// paper's evaluation (§6) at a configurable scale factor, printing the
// same series the paper plots. Load and regression measurement is not
// its job: that is benchmark/ (bash benchmark/run.sh, see its README).
//
// Usage:
//
//	ghostdb-bench -exp all                 # every table and figure
//	ghostdb-bench -exp fig8 -scale 0.02    # one figure, larger scale
//	ghostdb-bench -exp ablations           # merge reduction, Bloom ratio, climbing vs cascade
//	ghostdb-bench -exp fig10 -cpuprofile cpu.pprof -memprofile mem.pprof
//	                                       # profile any experiment (go tool pprof -top cpu.pprof)
//
// The paper's full scale (10M-tuple root table) is -scale 1.0; the
// default keeps laptop runtimes pleasant. Reported times are simulated
// (flash I/O + link transfer under the Table 1 cost model), so they are
// comparable across machines.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"ghostdb/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, table1, fig7..fig16, ablations")
	scale := flag.Float64("scale", 0.01, "scale factor (paper = 1.0)")
	seed := flag.Int64("seed", 1, "dataset seed")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file when the experiment ends")
	flag.Parse()

	stop, err := startProfiles(*cpuProfile, *memProfile)
	if err == nil {
		err = dispatch(os.Stdout, experiments.NewLab(*scale, *seed), strings.ToLower(*exp))
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

// dispatch runs the named experiment (or all, or the ablations) on lab
// and prints its tables to w.
func dispatch(w io.Writer, lab *experiments.Lab, exp string) error {
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
		fmt.Fprintln(w, "== Table 1: Main performance parameters of USB keys ==")
		for _, line := range experiments.Table1() {
			fmt.Fprintln(w, "  "+line)
		}
		fmt.Fprintln(w)
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
		printFigure(w, fig)
	}
	return nil
}

func printFigure(w io.Writer, fig *experiments.Figure) {
	fmt.Fprintf(w, "== %s: %s ==\n", fig.Name, fig.Title)
	fmt.Fprintf(w, "   x-axis: %s\n", fig.XLabel)
	if fig.Name == "fig7" {
		printFig7(w, fig)
		fmt.Fprintln(w)
		return
	}
	if fig.Name == "fig15" || fig.Name == "fig16" {
		printBars(w, fig)
		fmt.Fprintln(w)
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
		fmt.Fprintf(w, "  %-22s", s)
		pts := series[s]
		sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
		for _, p := range pts {
			switch {
			case p.Skipped:
				fmt.Fprintf(w, "  %8s", "-")
			case fig.Name == "ablation-bloom":
				fmt.Fprintf(w, "  %10.4f", p.Rate)
			default:
				fmt.Fprintf(w, "  %8.2fms", float64(p.Time.Microseconds())/1000)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-22s", "x =")
	pts := series[order[0]]
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	for _, p := range pts {
		fmt.Fprintf(w, "  %10.3f", p.X)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)
}

func printFig7(w io.Writer, fig *experiments.Figure) {
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
	fmt.Fprintf(w, "  %-14s", "k")
	for _, k := range ks {
		fmt.Fprintf(w, "  %8.0f", k)
	}
	fmt.Fprintln(w)
	for _, s := range []string{"FullIndex", "BasicIndex", "StarIndex", "JoinIndex", "DBSize"} {
		fmt.Fprintf(w, "  %-14s", s)
		for _, k := range ks {
			fmt.Fprintf(w, "  %6.1fMB", bySeries[s][k])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "  medical dataset (all hidden attrs indexed):")
	for _, s := range []string{"medical-FullIndex", "medical-BasicIndex", "medical-StarIndex", "medical-JoinIndex", "medical-DBSize"} {
		fmt.Fprintf(w, "    %-26s %6.1fMB\n", s, bySeries[s][-1])
	}
}

func printBars(w io.Writer, fig *experiments.Figure) {
	comps := []string{"Merge", "SJoin", "Store", "Project"}
	fmt.Fprintf(w, "  %-8s", "case")
	for _, c := range comps {
		fmt.Fprintf(w, "  %10s", c)
	}
	fmt.Fprintf(w, "  %10s\n", "total-IO")
	for _, p := range fig.Points {
		if p.Skipped {
			fmt.Fprintf(w, "  %-8s  skipped: %s\n", p.Series, p.Note)
			continue
		}
		fmt.Fprintf(w, "  %-8s", p.Series)
		for _, c := range comps {
			fmt.Fprintf(w, "  %8.2fms", float64(p.Breakdown[c].Microseconds())/1000)
		}
		fmt.Fprintf(w, "  %8.2fms\n", float64(p.IOTime.Microseconds())/1000)
	}
}
