package exec

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"ghostdb/internal/flash"
	"ghostdb/internal/ram"
)

// The golden counter ledger is the parity oracle for host-side
// optimisation: flash counters, bus bytes and row counts per statement
// are a function of the simulated access pattern only, so a change to
// the host representation (run-set ordering, stream heaps, buffer
// reuse, span bookkeeping) must reproduce every integer below. The file
// was recorded at the commit before the Merge hot path was rebuilt;
// regenerate with `go test ./internal/exec -run TestGoldenCounterLedger
// -update` only when the simulated behaviour is meant to change, and
// explain each differing line.

var updateGolden = flag.Bool("update", false, "rewrite testdata/counters_golden.json from this engine")

const goldenPath = "testdata/counters_golden.json"

// goldenEntry is one statement's exact simulated footprint.
type goldenEntry struct {
	SQL       string         `json:"sql"`
	Strategy  string         `json:"strategy"`
	Projector string         `json:"projector"`
	Err       string         `json:"err,omitempty"` // error class; counters are zero
	Rows      int            `json:"rows"`
	Flash     flash.Counters `json:"flash"`
	BusDown   uint64         `json:"bus_down"`
	BusUp     uint64         `json:"bus_up"`
}

// goldenSection is one corpus replayed in order on a fresh engine at one
// RAM grant.
type goldenSection struct {
	Corpus  string        `json:"corpus"`
	Buffers int           `json:"buffers"`
	Entries []goldenEntry `json:"entries"`
}

type goldenStmt struct {
	sql string
	cfg QueryConfig
}

// goldenPaperQ is the benchmark's paperq round (benchmark/paperq.go):
// query Q of §6.4 and its Figure 10 variant per sV of the §6 grid under
// the strategies the paper plots, 56 statements.
func goldenPaperQ() []goldenStmt {
	sel := func(s float64) string { return pad(int(s * testDomain)) }
	q := func(sv float64) string {
		return fmt.Sprintf(`SELECT T0.id, T1.id, T12.id, T1.v1, T1.v2, T1.h1 FROM T0, T1, T12 `+
			`WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id AND T1.v1 < '%s' AND T12.h2 < '%s'`, sel(sv), sel(0.1))
	}
	qNoCross := func(sv float64) string {
		return fmt.Sprintf(`SELECT T0.id, T1.id, T2.id, T1.v1 FROM T0, T1, T2 `+
			`WHERE T0.fk1 = T1.id AND T0.fk2 = T2.id AND T1.v1 < '%s' AND T2.h2 < '%s'`, sel(sv), sel(0.1))
	}
	var set []goldenStmt
	add := func(sql string, s Strategy) {
		set = append(set, goldenStmt{sql: sql, cfg: QueryConfig{Strategy: s}})
	}
	for _, sv := range []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0} {
		add(q(sv), StratAuto)
		add(q(sv), StratCrossPre)
		add(qNoCross(sv), StratAuto)
		add(qNoCross(sv), StratPre)
		if sv <= 0.2 {
			add(q(sv), StratCrossPost)
			add(qNoCross(sv), StratPost)
		}
	}
	return set
}

// goldenRandom is the random-query corpus of
// TestPlanFloorsSufficientProperty: same rng seed, same draws.
func goldenRandom() []goldenStmt {
	rng := rand.New(rand.NewSource(2024))
	var set []goldenStmt
	for i := 0; i < 150; i++ {
		sql := randomQuery(rng)
		set = append(set, goldenStmt{sql: sql, cfg: randomConfig(rng)})
	}
	return set
}

// goldenCompact is the writes corpus's stand-in statement for
// DB.Compact.
const goldenCompact = "COMPACT"

// goldenWrites interleaves UPDATE (visible and hidden SET) and DELETE
// from randomDML with INSERTs into a leaf and the root table and
// random SELECTs that read through the live delta logs, then compacts
// and reads the rebuilt images.
func goldenWrites() []goldenStmt {
	cards := writesCards()
	rng := rand.New(rand.NewSource(36))
	val := func() string { return fmt.Sprintf("'%010d'", rng.Intn(testDomain)) }
	var set []goldenStmt
	add := func(sql string) { set = append(set, goldenStmt{sql: sql}) }
	for i := 0; i < 48; i++ {
		add(randomDML(rng, cards))
		switch i % 4 {
		case 1:
			add(fmt.Sprintf("INSERT INTO T12 VALUES (%s, %s, %s, %s, %s, %s)",
				val(), val(), val(), val(), val(), val()))
		case 2:
			add(fmt.Sprintf("INSERT INTO T0 VALUES (%d, %d, %s, %s, %s, %s, %s, %s)",
				rng.Intn(cards["T1"]), rng.Intn(cards["T2"]), val(), val(), val(), val(), val(), val()))
		case 3:
			add(randomQuery(rng))
		}
	}
	add(goldenCompact)
	for i := 0; i < 6; i++ {
		add(randomQuery(rng))
	}
	return set
}

func writesCards() map[string]int {
	return map[string]int{"T0": 900, "T1": 140, "T2": 110, "T11": 40, "T12": 40}
}

// tokenSample reads every token's device and bus counters, summed.
func tokenSample(db *DB) (flash.Counters, uint64, uint64) {
	var fc flash.Counters
	var down, up uint64
	for _, tok := range db.tokens {
		d, u := tok.Bus.Counters()
		fc, down, up = fc.Add(tok.Dev.Counters()), down+d, up+u
	}
	return fc, down, up
}

// goldenCorpora: paperq at scale 0.002 of the paper's cardinalities, the
// random corpus on its usual fixture; each at the paper's 32-buffer
// grant and at the 7-buffer floor, where sublist reduction really runs
// (some 6 000 union passes per corpus, over up to 2 000 sublists). The
// last section replays paperq twice on a device of twice the loaded
// image, as the benchmark does: there the FTL erases blocks, and when it
// does depends on the order in which temporaries are written and freed.
var goldenCorpora = []struct {
	name    string
	seed    uint64
	cards   map[string]int
	stmts   func() []goldenStmt
	buffers []int
	tight   bool
}{
	{name: "paperq@0.002", seed: 11, stmts: goldenPaperQ, buffers: []int{32, minViableBuffers},
		cards: map[string]int{"T0": 20000, "T1": 2000, "T2": 2000, "T11": 200, "T12": 200}},
	{name: "random@2024", seed: 77, stmts: goldenRandom, buffers: []int{32, minViableBuffers},
		cards: map[string]int{"T0": 1200, "T1": 150, "T2": 120, "T11": 40, "T12": 40}},
	{name: "paperq@0.002 x2, device = 2x image", seed: 11, buffers: []int{32}, tight: true,
		stmts: func() []goldenStmt { return append(goldenPaperQ(), goldenPaperQ()...) },
		cards: map[string]int{"T0": 20000, "T1": 2000, "T2": 2000, "T11": 200, "T12": 200}},
	{name: "writes@36", seed: 97, stmts: goldenWrites, buffers: []int{32, minViableBuffers},
		cards: writesCards()},
}

// recordGolden replays every corpus and returns its ledger sections plus,
// for the sections at the ordinary device size, each statement's
// per-operator samples (TestOperatorSpansPinned). Automatic compaction
// is off so the writes corpus compacts only where it says so. INSERT and
// COMPACT return no Stats; their entries hold the device and bus
// counters read the way the benchmark's ledger reads them: the change
// across an INSERT, and the counters right after a compaction (whose
// session zeroes them when it starts). They record no spans.
func recordGolden(t *testing.T) ([]goldenSection, []spanSection) {
	var out []goldenSection
	var spans []spanSection
	for _, c := range goldenCorpora {
		for _, buffers := range c.buffers {
			dev := flash.Params{PageSize: 2048, PagesPerBlock: 16, Blocks: 8192, ReserveBlocks: 4}
			if c.tight {
				image := newFixtureOpts(t, c.seed, c.cards, Options{FlashParams: dev}).db.Dev.PagesUsed()
				dev.Blocks = 2*image/dev.PagesPerBlock + dev.ReserveBlocks
			}
			f := newFixtureOpts(t, c.seed, c.cards, Options{
				RAMBudget: buffers * 2048, FlashParams: dev, CompactThreshold: -1})
			sec := goldenSection{Corpus: c.name, Buffers: buffers}
			ssec := spanSection{Corpus: c.name, Buffers: buffers}
			for _, st := range c.stmts() {
				e := goldenEntry{SQL: st.sql, Strategy: st.cfg.Strategy.String(), Projector: st.cfg.Projector.String()}
				if st.sql == goldenCompact || strings.HasPrefix(st.sql, "INSERT") {
					fc, down, up := tokenSample(f.db)
					var err error
					if st.sql == goldenCompact {
						err = f.db.Compact(context.Background())
					} else {
						_, err = f.db.RunCtx(context.Background(), st.sql, st.cfg)
					}
					if err != nil {
						t.Fatalf("%s @%d %s: %v", c.name, buffers, st.sql, err)
					}
					e.Flash, e.BusDown, e.BusUp = tokenSample(f.db)
					if st.sql != goldenCompact {
						e.Flash, e.BusDown, e.BusUp = e.Flash.Sub(fc), e.BusDown-down, e.BusUp-up
					}
					sec.Entries = append(sec.Entries, e)
					ssec.Statements = append(ssec.Statements, nil)
					continue
				}
				res, err := f.db.RunCtx(context.Background(), st.sql, st.cfg)
				switch {
				case errors.Is(err, ErrBloomInfeasible):
					e.Err = "bloom-infeasible"
				case errors.Is(err, ram.ErrExhausted):
					e.Err = "ram-exhausted"
				case err != nil:
					t.Fatalf("%s @%d [%s/%s] %s: %v", c.name, buffers, e.Strategy, e.Projector, st.sql, err)
				default:
					e.Rows = len(res.Rows)
					if len(res.Columns) == 1 && res.Columns[0] == "affected" {
						e.Rows = int(res.Rows[0][0].I) // UPDATE/DELETE
					}
					e.Flash, e.BusDown, e.BusUp = res.Stats.Flash, res.Stats.BusDown, res.Stats.BusUp
				}
				if f.db.RAM.Leaked() {
					t.Fatalf("%s @%d %s: grants leaked", c.name, buffers, st.sql)
				}
				sec.Entries = append(sec.Entries, e)
				if err == nil {
					ssec.Statements = append(ssec.Statements, operatorSpans(res.Stats))
				} else {
					ssec.Statements = append(ssec.Statements, nil)
				}
			}
			out = append(out, sec)
			if !c.tight {
				spans = append(spans, ssec)
			}
		}
	}
	return out, spans
}

func TestGoldenCounterLedger(t *testing.T) {
	got, _ := recordGolden(t)
	if *updateGolden {
		var b strings.Builder
		b.WriteString("[\n")
		for i, sec := range got {
			fmt.Fprintf(&b, " {\"corpus\": %q, \"buffers\": %d, \"entries\": [\n", sec.Corpus, sec.Buffers)
			for j, e := range sec.Entries {
				line, err := json.Marshal(e)
				if err != nil {
					t.Fatal(err)
				}
				b.WriteString("  " + string(line))
				if j < len(sec.Entries)-1 {
					b.WriteString(",")
				}
				b.WriteString("\n")
			}
			b.WriteString(" ]}")
			if i < len(got)-1 {
				b.WriteString(",")
			}
			b.WriteString("\n")
		}
		b.WriteString("]\n")
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	var want []goldenSection
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d sections, golden has %d", len(got), len(want))
	}
	for i, sec := range got {
		w := want[i]
		if sec.Corpus != w.Corpus || sec.Buffers != w.Buffers || len(sec.Entries) != len(w.Entries) {
			t.Fatalf("section %d is %s@%d with %d entries, golden has %s@%d with %d",
				i, sec.Corpus, sec.Buffers, len(sec.Entries), w.Corpus, w.Buffers, len(w.Entries))
		}
		for j, e := range sec.Entries {
			if e != w.Entries[j] {
				t.Errorf("%s @%d buffers, statement %d differs\n got  %+v\n want %+v", sec.Corpus, sec.Buffers, j, e, w.Entries[j])
			}
		}
	}
}
