// Command ghostdb is an interactive shell over a demo GhostDB instance:
// it loads the medical database of the paper's evaluation (§6.2) — or the
// synthetic tree dataset — and executes SQL from stdin, printing result
// rows and the simulated secure-token cost of every query.
//
// Usage:
//
//	ghostdb                         # medical demo, interactive
//	ghostdb -db synthetic -scale 0.01
//	echo "SELECT ..." | ghostdb -stats
//
// `EXPLAIN SELECT ...` prints the statement's plan — per-table
// strategies, derived RAM footprint and estimated cost — without
// executing it. `EXPLAIN ANALYZE SELECT ...` executes the statement
// with a trace attached and prints the span tree as JSON: parse,
// resolve, plan, admission wait, and the token execution broken down
// into per-operator simulated costs that sum to the query's SimTime.
//
// UPDATE and DELETE statements commit through the secure token's hidden
// delta log; `\compact` folds the accumulated deltas into fresh base
// images on every token and prints the write-path counters.
//
// Shell commands: \schema  \stats  \cache  \shards  \compact  \audit
// \metrics  \slowlog  \quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ghostdb/internal/datagen"
	"ghostdb/internal/exec"
	"ghostdb/internal/flash"
	"ghostdb/internal/obs"
)

func main() {
	which := flag.String("db", "medical", "demo database: medical or synthetic")
	scale := flag.Float64("scale", 0.005, "scale factor (paper = 1.0)")
	seed := flag.Int64("seed", 1, "dataset seed")
	stats := flag.Bool("stats", false, "print cost statistics after every query")
	ramBytes := flag.Int("ram", 0, "secure RAM budget in bytes (default 65536, the paper's Table 1)")
	cacheBytes := flag.Int("cache", 4<<20, "untrusted-side result cache bound in bytes (0 disables)")
	shards := flag.Int("shards", 1, "simulated secure tokens to place the schema's trees across")
	metricsOn := flag.Bool("metrics", false, "enable the \\metrics command (Prometheus text dump; collection is always on)")
	slowMs := flag.Int("slowlog-ms", 0, "slow-query log threshold in simulated milliseconds (0 disables the \\slowlog ring)")
	flag.Parse()

	db, err := buildDemo(*which, *scale, *seed, *ramBytes, *cacheBytes, *shards,
		time.Duration(*slowMs)*time.Millisecond)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ghostdb:", err)
		os.Exit(1)
	}
	fmt.Printf("GhostDB %s demo shell — %s dataset at scale %g\n", exec.Version, *which, *scale)
	for _, t := range db.Sch.Tables {
		fmt.Printf("  %-14s %8d tuples\n", t.Name, db.Rows(t.Index))
	}
	fmt.Println(`Type SQL (single line), EXPLAIN [ANALYZE] SELECT ..., or \schema, \stats, \cache, \shards, \compact, \audit, \metrics, \slowlog, \quit.`)

	showStats := *stats
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("ghostdb> ")
		if !in.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(in.Text())
		switch {
		case line == "":
			continue
		case line == `\quit` || line == `\q`:
			return
		case line == `\schema`:
			fmt.Print(db.Sch.String())
			continue
		case line == `\stats`:
			showStats = !showStats
			fmt.Printf("stats: %v\n", showStats)
			continue
		case line == `\cache`:
			cs := db.CacheStats()
			if cs.CapacityBytes == 0 {
				fmt.Println("result cache disabled (run with -cache <bytes>)")
				continue
			}
			tot := db.Totals()
			fmt.Printf("result cache: %d entries, %d of %d bytes (untrusted RAM — not charged to the secure budget)\n",
				cs.Entries, cs.Bytes, cs.CapacityBytes)
			fmt.Printf("  hits %d · singleflight-shared %d · misses %d · evictions %d · invalidations %d\n",
				cs.Hits, cs.SharedHits, cs.Misses, cs.Evictions, cs.Invalidations)
			fmt.Printf("  queries answered without token traffic: %d of %d\n",
				tot.CacheHits+tot.CacheShared, tot.Queries)
			continue
		case line == `\shards`:
			fmt.Printf("placement over %d secure token(s):\n%s", len(db.Tokens()), db.Placement().Describe(db.Sch))
			for i, tot := range db.TokenTotals() {
				fmt.Printf("  token %d totals: %d sessions, %v simulated, %d flash reads / %d writes, %d B down / %d B up\n",
					i, tot.Queries, tot.SimTime, tot.Flash.PageReads, tot.Flash.PageWrites, tot.BusDown, tot.BusUp)
			}
			continue
		case line == `\compact`:
			start := time.Now()
			if err := db.Compact(context.Background()); err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("compaction pass done in %v wall time\n", time.Since(start))
			for i, ds := range db.TokenDeltaStats() {
				fmt.Printf("  token %d: delta %d pages, %d DML statements committed, %d compactions\n",
					i, ds.Pages, ds.DMLStatements, ds.Compactions)
			}
			continue
		case line == `\audit`:
			ups := db.Bus.UplinkRecords()
			fmt.Printf("Secure -> Untrusted transfers since the last query: %d\n", len(ups))
			for _, r := range ups {
				fmt.Printf("  [%s] %d bytes: %q\n", r.Kind, r.Bytes, r.Payload)
			}
			continue
		case line == `\metrics`:
			if !*metricsOn {
				fmt.Println("metrics exposure is off (run with -metrics)")
				continue
			}
			if err := db.Metrics().WritePrometheus(os.Stdout); err != nil {
				fmt.Println("error:", err)
			}
			continue
		case line == `\slowlog`:
			sl := db.SlowLog()
			if sl == nil {
				fmt.Println("slow-query log disabled (run with -slowlog-ms <threshold>)")
				continue
			}
			entries := sl.Entries()
			fmt.Printf("slow-query log: %d recorded (threshold %v, ring holds %d)\n",
				sl.Total(), sl.Threshold(), len(entries))
			for _, e := range entries {
				fmt.Printf("  [%s] %s sim %dµs, queue %dµs, grant %d/%d buffers: %s\n",
					e.Time.Format("15:04:05"), e.Kind, e.SimUs, e.QueueWaitUs,
					e.PlanMinBuffers, e.GrantBuffers, e.Query)
				for _, sc := range e.Spans {
					fmt.Printf("      %-12s %8dµs\n", sc.Name, sc.SimUs)
				}
			}
			continue
		case strings.HasPrefix(line, `\`):
			fmt.Println("unknown command:", line)
			continue
		}
		if fields := strings.Fields(line); len(fields) > 1 && strings.EqualFold(fields[0], "EXPLAIN") {
			if len(fields) > 2 && strings.EqualFold(fields[1], "ANALYZE") {
				// EXPLAIN ANALYZE SELECT ... : execute with a trace and
				// print the span tree as JSON.
				sql := strings.TrimSpace(line[strings.Index(strings.ToLower(line), "analyze")+len("analyze"):])
				tr := obs.NewTrace(sql)
				res, err := db.RunCtx(context.Background(), sql, exec.QueryConfig{Trace: tr})
				if err != nil {
					fmt.Println("error:", err)
					continue
				}
				tr.Finish()
				blob, err := tr.JSON()
				if err != nil {
					fmt.Println("error:", err)
					continue
				}
				os.Stdout.Write(blob)
				fmt.Println()
				fmt.Printf("(%d rows; simulated time %v; queue wait %v; grant %d/%d buffers)\n",
					len(res.Rows), res.Stats.SimTime, res.Stats.QueueWait,
					res.Stats.PlanMinBuffers, res.Stats.GrantBuffers)
				continue
			}
			// EXPLAIN SELECT ... : print the plan (strategies, footprint,
			// estimated cost) without executing anything.
			stmt, err := db.Prepare(strings.TrimSpace(line[len(fields[0]):]), exec.QueryConfig{})
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(stmt.Plan().Explain())
			continue
		}
		res, err := db.Run(line)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		printResult(res)
		if showStats {
			printStats(res)
		}
	}
}

func buildDemo(which string, scale float64, seed int64, ramBytes, cacheBytes, shards int, slowThreshold time.Duration) (*exec.DB, error) {
	var ds *datagen.Dataset
	var err error
	switch which {
	case "medical":
		ds, err = datagen.Medical(scale, seed)
	case "synthetic":
		ds, err = datagen.Synthetic(scale, seed)
	default:
		return nil, fmt.Errorf("unknown demo database %q", which)
	}
	if err != nil {
		return nil, err
	}
	p := flash.DefaultParams()
	p.Blocks = 1 << 14
	if ramBytes != 0 && ramBytes < p.PageSize {
		return nil, fmt.Errorf("-ram %d is smaller than one %d-byte flash buffer", ramBytes, p.PageSize)
	}
	return ds.NewDB(exec.Options{
		FlashParams:        p,
		RAMBudget:          ramBytes,
		ResultCacheBytes:   cacheBytes,
		Shards:             shards,
		SlowQueryThreshold: slowThreshold,
	})
}

func printResult(res *exec.Result) {
	if len(res.Columns) == 0 {
		fmt.Println("ok")
		return
	}
	const maxRows = 25
	widths := make([]int, len(res.Columns))
	for i, c := range res.Columns {
		widths[i] = len(c)
	}
	shown := res.Rows
	if len(shown) > maxRows {
		shown = shown[:maxRows]
	}
	cells := make([][]string, len(shown))
	for ri, row := range shown {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	for i, c := range res.Columns {
		fmt.Printf("| %-*s ", widths[i], c)
	}
	fmt.Println("|")
	for i := range res.Columns {
		fmt.Print("|", strings.Repeat("-", widths[i]+2))
	}
	fmt.Println("|")
	for _, row := range cells {
		for ci, s := range row {
			fmt.Printf("| %-*s ", widths[ci], s)
		}
		fmt.Println("|")
	}
	if len(res.Rows) > maxRows {
		fmt.Printf("... (%d rows total)\n", len(res.Rows))
	} else {
		fmt.Printf("(%d rows)\n", len(res.Rows))
	}
}

func printStats(res *exec.Result) {
	s := res.Stats
	if s.CacheHit || s.CacheShared {
		label := "hit"
		if s.CacheShared {
			label = "singleflight-shared"
		}
		fmt.Printf("result cache %s: zero secure-token traffic (no flash I/O, no bus bytes)\n", label)
		return
	}
	fmt.Printf("simulated time: %v (flash %v + link %v)\n", s.SimTime, s.IOTime, s.CommTime)
	fmt.Printf("flash: %d reads, %d writes, %d bytes to RAM; link: %d B down / %d B up; RAM high water: %d B\n",
		s.Flash.PageReads, s.Flash.PageWrites, s.Flash.BytesToRAM, s.BusDown, s.BusUp, s.RAMHigh)
	if len(s.Strategy) > 0 {
		fmt.Print("strategies: ")
		for t, st := range s.Strategy {
			fmt.Printf("%s=%v ", t, st)
		}
		fmt.Println()
	}
}
