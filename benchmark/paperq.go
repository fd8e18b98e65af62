package main

import (
	"fmt"
	"math/rand"
	"time"

	"ghostdb/internal/datagen"
	"ghostdb/internal/exec"
	"ghostdb/internal/schema"
)

// paperq: the paper's query Q family (§6.4) on the Figure 3 synthetic
// schema, in process, unpaced, both caches off, audit off. For each sV
// of the §6 grid: Q with two visible and one hidden projection under
// Auto / Cross-Pre-Filter / Cross-Post-Filter, and the Figure 10
// variant (hidden selection outside T1's subtree) under Auto /
// Pre-Filter / Post-Filter; Post strategies only up to sV = 0.2 (the
// engine refuses a forced Bloom filter once the measured selectivity
// passes 0.5, which a nominal 0.5 does on half the seeds). One round is
// the whole set, seed-shuffled; every round is the same work.
//
// Sizing: datagen.Synthetic(0.01) loads 10 497 flash pages and the
// device holds twice that. The workload writes only spools, which die
// with their statement, so the FTL finds whole dead blocks to erase and
// never relocates a page (runClosed checks it). The issue sketched scale 0.02; at the driver's
// 10 s window that yields under 450 statements (7 rounds), too few for
// a p99, so the scale is halved and a window holds about 14 rounds.
const (
	paperqScale      = 0.01
	paperqImagePages = 10500
	paperqTinyScale  = 0.0005
	paperqTinyPages  = 600
	paperqSH         = 0.1 // hidden selectivity of query Q (§6.4)
)

// paperqSV is the visible-selectivity grid of §6 (x-axis of Figs 8-13).
var paperqSV = []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0}

// synthQ renders query Q of §6.4: visible selection on T1, hidden
// selection on T12, joins up to T0, projecting two visible attributes
// and one hidden attribute of T1.
func synthQ(sv float64) string {
	return fmt.Sprintf(`SELECT T0.id, T1.id, T12.id, T1.v1, T1.v2, T1.h1 FROM T0, T1, T12 `+
		`WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id AND T1.v1 < '%s' AND T12.h2 < '%s'`,
		datagen.SelValue(sv), datagen.SelValue(paperqSH))
}

// synthQNoCross renders the Figure 10 variant: the hidden selection
// sits on T2, so the Cross optimization cannot apply.
func synthQNoCross(sv float64) string {
	return fmt.Sprintf(`SELECT T0.id, T1.id, T2.id, T1.v1 FROM T0, T1, T2 `+
		`WHERE T0.fk1 = T1.id AND T0.fk2 = T2.id AND T1.v1 < '%s' AND T2.h2 < '%s'`,
		datagen.SelValue(sv), datagen.SelValue(paperqSH))
}

// paperqSet is one round: every (query, strategy) pair.
func paperqSet(sch *schema.Schema) []stmt {
	t0, _ := sch.Lookup("T0")
	var set []stmt
	add := func(sql string, s exec.Strategy) {
		set = append(set, stmt{sql: sql, kind: kSelect, table: t0.Index, cfg: exec.QueryConfig{Strategy: s}})
	}
	for _, sv := range paperqSV {
		add(synthQ(sv), exec.StratAuto)
		add(synthQ(sv), exec.StratCrossPre)
		add(synthQNoCross(sv), exec.StratAuto)
		add(synthQNoCross(sv), exec.StratPre)
		if sv <= 0.2 {
			add(synthQ(sv), exec.StratCrossPost)
			add(synthQNoCross(sv), exec.StratPost)
		}
	}
	return set
}

// roundStream yields shuffled rounds of a fixed statement set.
type roundStream struct {
	set  []stmt
	rng  *rand.Rand
	perm []int
	pos  int
}

func (s *roundStream) next() stmt {
	if s.pos == len(s.perm) {
		s.perm = s.rng.Perm(len(s.set))
		s.pos = 0
	}
	st := s.set[s.perm[s.pos]]
	s.pos++
	return st
}

// buildDataset generates a dataset, loads it into an engine sized for
// it (the part that counts as set-up) and decodes the same rows into
// the oracle.
func buildDataset(gen func() (*datagen.Dataset, error), devicePages int, opts exec.Options) (*fixture, error) {
	opts.FlashParams = flashFor(devicePages)
	opts.BusAuditEntries = -1
	start := time.Now()
	ds, err := gen()
	if err != nil {
		return nil, err
	}
	db, err := ds.NewDB(opts)
	if err != nil {
		return nil, err
	}
	fx := &fixture{db: db, rowBytes: rowWidths(ds.Sch), setup: time.Since(start)}
	if fx.oracle, err = ds.RefEngine(); err != nil {
		return nil, err
	}
	for _, t := range ds.Sch.Tables {
		fx.userBytes += int64(fx.rowBytes[t.Index]) * int64(ds.Load[t.Index].Rows)
	}
	for _, t := range fx.tokens() {
		fx.loadedPages += t.Dev.PagesUsed()
	}
	return fx, nil
}

// buildForest is buildDataset over the nTrees-tree forest.
func buildForest(scale float64, nTrees, devicePages int, opts exec.Options) (*fixture, error) {
	return buildDataset(func() (*datagen.Dataset, error) { return datagen.Forest(scale, dataSeed, nTrees) }, devicePages, opts)
}

var paperqDef = closedDef{
	name: "paperq",
	build: func(tiny bool) (*fixture, error) {
		scale, pages := paperqScale, paperqImagePages
		if tiny {
			scale, pages = paperqTinyScale, paperqTinyPages
		}
		return buildDataset(func() (*datagen.Dataset, error) { return datagen.Synthetic(scale, dataSeed) },
			2*pages, exec.Options{CompactThreshold: -1})
	},
	newStream: func(seed int64, fx *fixture) stream {
		return &roundStream{set: paperqSet(fx.db.Sch), rng: rand.New(rand.NewSource(seed))}
	},
	chunk: 56, // len(paperqSet): 10 sV x 4 + 8 sV x 2
}

func runPaperQ(rc runConfig) (*report, error) { return runClosed(paperqDef, rc) }
