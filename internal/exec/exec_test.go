package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"ghostdb/internal/flash"
	"ghostdb/internal/query"
	"ghostdb/internal/ref"
	"ghostdb/internal/schema"
	"ghostdb/internal/sqlparse"
)

// Test fixtures live in exec to avoid an import cycle with datagen, which
// depends on exec for the load types. The dataset mirrors the synthetic
// generator: uniform padded decimals over a domain of 1000.

const testDomain = 1000

func pad(v int) string { return fmt.Sprintf("%010d", v) }

type fixture struct {
	db  *DB
	ref *ref.Engine
	sch *schema.Schema
}

// attrs is the column set every test table carries: v1..v3 visible and
// h1..h3 hidden, char(10).
func attrs() []schema.Column {
	var cols []schema.Column
	for i := 1; i <= 3; i++ {
		cols = append(cols, schema.Column{Name: fmt.Sprintf("v%d", i), Kind: schema.KindChar, Width: 10})
	}
	for i := 1; i <= 3; i++ {
		cols = append(cols, schema.Column{Name: fmt.Sprintf("h%d", i), Kind: schema.KindChar, Width: 10, Hidden: true})
	}
	return cols
}

func synthDefs() []schema.TableDef {
	return []schema.TableDef{
		{Name: "T0", Columns: attrs(), Refs: []schema.Ref{
			{FKColumn: "fk1", Child: "T1", Hidden: true},
			{FKColumn: "fk2", Child: "T2", Hidden: true}}},
		{Name: "T1", Columns: attrs(), Refs: []schema.Ref{
			{FKColumn: "fk11", Child: "T11", Hidden: true},
			{FKColumn: "fk12", Child: "T12", Hidden: true}}},
		{Name: "T2", Columns: attrs()},
		{Name: "T11", Columns: attrs()},
		{Name: "T12", Columns: attrs()},
	}
}

// lcg is a tiny deterministic generator so the fixture is stable.
type lcg struct{ s uint64 }

func (l *lcg) next(n int) int {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return int((l.s >> 33) % uint64(n))
}

func newFixture(t testing.TB, seed uint64, cards map[string]int) *fixture {
	t.Helper()
	return newFixtureOpts(t, seed, cards, Options{
		FlashParams: flash.Params{PageSize: 2048, PagesPerBlock: 16, Blocks: 8192, ReserveBlocks: 4},
	})
}

// newFixtureOpts is newFixture with custom engine options.
func newFixtureOpts(t testing.TB, seed uint64, cards map[string]int, opts Options) *fixture {
	t.Helper()
	return newFixtureDefs(t, seed, synthDefs(), cards, opts)
}

// newFixtureDefs loads cards[table] seeded random rows per table of defs
// into an engine built with opts, plus a matching reference engine.
func newFixtureDefs(t testing.TB, seed uint64, defs []schema.TableDef, cards map[string]int, opts Options) *fixture {
	t.Helper()
	sch, err := schema.New(defs)
	if err != nil {
		t.Fatal(err)
	}
	rng := &lcg{s: seed}
	load := map[int]*TableLoad{}
	re := ref.New(sch)
	for _, tb := range sch.Tables {
		n := cards[tb.Name]
		ld := &TableLoad{Rows: n, FKs: map[int][]uint32{}}
		rows := make([]schema.Row, n)
		for ci, col := range tb.Columns {
			w := col.EncodedWidth()
			data := make([]byte, n*w)
			for i := 0; i < n; i++ {
				v := schema.CharVal(pad(rng.next(testDomain)))
				if rows[i] == nil {
					rows[i] = make(schema.Row, len(tb.Columns))
				}
				rows[i][ci] = v
				if err := schema.EncodeValue(data[i*w:(i+1)*w], v); err != nil {
					t.Fatal(err)
				}
			}
			ld.Cols = append(ld.Cols, ColData{Width: w, Data: data})
		}
		for _, ci := range tb.Children() {
			cn := cards[sch.Tables[ci].Name]
			fk := make([]uint32, n)
			for i := range fk {
				fk[i] = uint32(rng.next(cn))
			}
			ld.FKs[ci] = fk
		}
		load[tb.Index] = ld
		re.Load(tb.Index, rows, ld.FKs)
	}
	db, err := NewDB(sch, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Load(load); err != nil {
		t.Fatal(err)
	}
	return &fixture{db: db, ref: re, sch: sch}
}

func defaultCards() map[string]int {
	return map[string]int{"T0": 2500, "T1": 300, "T2": 250, "T11": 60, "T12": 60}
}

// refAnswer evaluates sql on the reference engine.
func (f *fixture) refAnswer(t testing.TB, sql string) []schema.Row {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	q, err := query.Resolve(f.sch, stmt.(*sqlparse.Select), sql)
	if err != nil {
		t.Fatalf("resolve %q: %v", sql, err)
	}
	rows, err := f.ref.Evaluate(q)
	if err != nil {
		t.Fatalf("ref %q: %v", sql, err)
	}
	return rows
}

func rowsEqual(a, b []schema.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !a[i][j].Equal(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// checkNoLeak asserts the security invariant: nothing but the query text
// ever crossed Secure -> Untrusted.
func checkNoLeak(t testing.TB, db *DB, sql string) {
	t.Helper()
	ups := db.Bus.UplinkRecords()
	if len(ups) != 1 {
		t.Fatalf("%d uplink transfers (want 1: the query): %+v", len(ups), ups)
	}
	if ups[0].Kind != "query" || ups[0].Payload != sql {
		t.Fatalf("unexpected uplink payload: %+v", ups[0])
	}
}

var testQueries = []string{
	// The paper's query Q (§6.4) with a projection on T1.v1.
	`SELECT T0.id, T1.id, T12.id, T1.v1 FROM T0, T1, T12 WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id AND T1.v1 < '0000000300' AND T12.h2 < '0000000100'`,
	// Hidden and visible value projections across levels.
	`SELECT T0.id, T1.h1, T12.v2, T0.h3, T0.v1 FROM T0, T1, T12 WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id AND T1.v1 < '0000000400' AND T12.h2 < '0000000200'`,
	// Mono-table mixed visible/hidden selection (the §2.1 example shape).
	`SELECT id, v1, h1 FROM T11 WHERE v1 < '0000000500' AND h2 >= '0000000800'`,
	// Hidden-only query: no visible selection at all.
	`SELECT T0.id FROM T0, T2 WHERE T0.fk2 = T2.id AND T2.h1 = '0000000003'`,
	// BETWEEN and <> operators.
	`SELECT T1.id FROM T1, T12 WHERE T1.fk12 = T12.id AND T12.h1 BETWEEN '0000000100' AND '0000000200' AND T1.v2 <> '0000000042'`,
	// Identifier predicates (free anchor filter + id-index range).
	`SELECT T0.id, T1.id FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.id < 50 AND T0.h1 < '0000000500'`,
	`SELECT T0.id FROM T0, T1 WHERE T0.fk1 = T1.id AND T0.id BETWEEN 100 AND 300 AND T1.h1 < '0000000500'`,
	// Anchor-table visible selection combined with a deep hidden one.
	`SELECT T0.id, T0.v1 FROM T0, T1, T12 WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id AND T0.v1 < '0000000100' AND T12.h2 < '0000000100'`,
	// Subtree query that never touches the root (FullIndex benefit).
	`SELECT T1.id, T11.id FROM T1, T11, T12 WHERE T1.fk11 = T11.id AND T1.fk12 = T12.id AND T11.h1 < '0000000300' AND T1.v1 < '0000000400'`,
	// SELECT * on a leaf table, hidden equality.
	`SELECT * FROM T12 WHERE h1 = '0000000007'`,
	// Join with no selections at all.
	`SELECT T0.id, T2.id FROM T0, T2 WHERE T0.fk2 = T2.id AND T2.h1 < '0000000050'`,
	// Empty result.
	`SELECT T0.id FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.v1 < '0000000000' AND T1.h1 < '0000000100'`,
	// Aliases, as in the paper's own example text.
	`SELECT a.id, b.v1 FROM T0 a, T1 b WHERE a.fk1 = b.id AND b.v1 < '0000000200' AND b.h1 < '0000000300'`,
	// Two visible selections on different tables plus hidden selections.
	`SELECT T0.id, T1.v1, T2.v2 FROM T0, T1, T2 WHERE T0.fk1 = T1.id AND T0.fk2 = T2.id AND T1.v1 < '0000000300' AND T2.v2 < '0000000400' AND T1.h1 < '0000000500'`,
	// Visible-only single table (untrusted fast path).
	`SELECT id, v1 FROM T2 WHERE v2 < '0000000200'`,
	// Float/int coercions are exercised by the medical tests.
}

func TestQueriesMatchReferenceAcrossStrategies(t *testing.T) {
	f := newFixture(t, 42, defaultCards())
	strategies := []Strategy{StratAuto, StratPre, StratCrossPre, StratPost,
		StratCrossPost, StratPostSelect, StratCrossPostSelect, StratNoFilter}
	projectors := []Projector{ProjectBloom, ProjectNoBF, ProjectBruteForce}
	for qi, sql := range testQueries {
		want := f.refAnswer(t, sql)
		for _, s := range strategies {
			for _, pj := range projectors {
				res, err := f.db.RunCtx(context.Background(), sql, QueryConfig{Strategy: s, Projector: pj})
				if err != nil {
					if errors.Is(err, ErrBloomInfeasible) {
						continue // the paper stops Post curves there too
					}
					t.Fatalf("q%d [%v/%v] %s: %v", qi, s, pj, sql, err)
				}
				if !rowsEqual(res.Rows, want) {
					t.Fatalf("q%d [%v/%v]: got %d rows, want %d\nsql: %s\ngot:  %v\nwant: %v",
						qi, s, pj, len(res.Rows), len(want), sql, sample(res.Rows), sample(want))
				}
				checkNoLeak(t, f.db, sql)
				if f.db.RAM.InUse() != 0 {
					t.Fatalf("q%d [%v/%v]: RAM leak: %d bytes", qi, s, pj, f.db.RAM.InUse())
				}
			}
		}
	}
}

func sample(rows []schema.Row) []schema.Row {
	if len(rows) > 5 {
		return rows[:5]
	}
	return rows
}

func TestAutoPlannerPicksSaneStrategies(t *testing.T) {
	f := newFixture(t, 7, defaultCards())
	// Selective visible selection with cross opportunity -> Cross-Pre.
	res, err := f.db.Run(`SELECT T0.id FROM T0, T1, T12 WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id AND T1.v1 < '0000000020' AND T12.h2 < '0000000100'`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.Strategy["T1"]; got != StratCrossPre {
		t.Fatalf("selective+cross: %v", got)
	}
	// Unselective with cross -> Cross-Post.
	res, err = f.db.Run(`SELECT T0.id FROM T0, T1, T12 WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id AND T1.v1 < '0000000900' AND T12.h2 < '0000000100'`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.Strategy["T1"]; got != StratCrossPost {
		t.Fatalf("unselective+cross: %v", got)
	}
	// No cross, selective -> Pre.
	res, err = f.db.Run(`SELECT T0.id FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.v1 < '0000000020' AND T0.h1 < '0000000500'`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.Strategy["T1"]; got != StratPre {
		t.Fatalf("no-cross selective: %v", got)
	}
	// No cross, sV around 0.3 -> Post; around 0.9 -> NoFilter.
	res, err = f.db.Run(`SELECT T0.id FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.v1 < '0000000300' AND T0.h1 < '0000000500'`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.Strategy["T1"]; got != StratPost {
		t.Fatalf("no-cross mid: %v", got)
	}
	res, err = f.db.Run(`SELECT T0.id FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.v1 < '0000000900' AND T0.h1 < '0000000500'`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.Strategy["T1"]; got != StratNoFilter {
		t.Fatalf("no-cross wide: %v", got)
	}
}

func TestInsertThenQuery(t *testing.T) {
	f := newFixture(t, 11, map[string]int{"T0": 400, "T1": 80, "T2": 60, "T11": 20, "T12": 20})
	ins := []string{
		// T12 leaf insert (fks: none; columns v1..v3, h1..h3).
		`INSERT INTO T12 VALUES ('0000000001','0000000002','0000000003','0000000007','0000000005','0000000006')`,
		// T1 insert referencing existing T11/T12 rows (fk11, fk12, then columns).
		`INSERT INTO T1 VALUES (3, 20, '0000000011','0000000012','0000000013','0000000014','0000000015','0000000016')`,
		// T0 insert referencing the new T1 row (id 80) and an existing T2 row.
		`INSERT INTO T0 (fk1, fk2, v1, v2, v3, h1, h2, h3) VALUES (80, 5, '0000000021','0000000022','0000000023','0000000024','0000000025','0000000026')`,
	}
	for _, sql := range ins {
		if _, err := f.db.Run(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	// Mirror into the reference engine.
	mk := func(vals ...string) schema.Row {
		row := make(schema.Row, len(vals))
		for i, v := range vals {
			row[i] = schema.CharVal(v)
		}
		return row
	}
	t12, _ := f.sch.Lookup("T12")
	t11, _ := f.sch.Lookup("T11")
	t2, _ := f.sch.Lookup("T2")
	t1, _ := f.sch.Lookup("T1")
	f.ref.Insert(t12.Index, mk("0000000001", "0000000002", "0000000003", "0000000007", "0000000005", "0000000006"), nil)
	f.ref.Insert(t1.Index, mk("0000000011", "0000000012", "0000000013", "0000000014", "0000000015", "0000000016"),
		map[int]uint32{t11.Index: 3, t12.Index: 20})
	t0тbl, _ := f.sch.Lookup("T0")
	f.ref.Insert(t0тbl.Index, mk("0000000021", "0000000022", "0000000023", "0000000024", "0000000025", "0000000026"),
		map[int]uint32{t1.Index: 80, t2.Index: 5})

	queries := []string{
		// Must see the new T0 row via the new T1 and new T12 rows.
		`SELECT T0.id, T1.id, T12.id FROM T0, T1, T12 WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id AND T12.h1 = '0000000007' AND T1.v1 < '0000000999'`,
		`SELECT T0.id, T0.h1 FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.h1 = '0000000014'`,
		`SELECT id, h1 FROM T12 WHERE h1 = '0000000007'`,
		`SELECT T1.id, T1.v1 FROM T1, T12 WHERE T1.fk12 = T12.id AND T12.h1 = '0000000007' AND T1.v1 >= '0000000000'`,
	}
	for _, sql := range queries {
		want := f.refAnswer(t, sql)
		res, err := f.db.Run(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if !rowsEqual(res.Rows, want) {
			t.Fatalf("%s:\ngot:  %v\nwant: %v", sql, sample(res.Rows), sample(want))
		}
	}
	// Insert validation errors.
	bad := []string{
		`INSERT INTO T0 VALUES (99999, 5, '0000000021','0000000022','0000000023','0000000024','0000000025','0000000026')`, // dangling fk
		`INSERT INTO T12 VALUES ('0000000001')`, // arity
		`INSERT INTO Nope VALUES (1)`,
		`INSERT INTO T12 (v1, v2, v3, h1, h2, nosuch) VALUES ('a','b','c','d','e','f')`,
	}
	for _, sql := range bad {
		if _, err := f.db.Run(sql); err == nil {
			t.Fatalf("accepted %q", sql)
		}
	}
}

func TestVisibleOnlyFastPathStaysOffFlash(t *testing.T) {
	f := newFixture(t, 5, defaultCards())
	res, err := f.db.Run(`SELECT id, v1 FROM T2 WHERE v2 < '0000000200'`)
	if err != nil {
		t.Fatal(err)
	}
	want := f.refAnswer(t, `SELECT id, v1 FROM T2 WHERE v2 < '0000000200'`)
	if !rowsEqual(res.Rows, want) {
		t.Fatalf("fast path wrong: %d vs %d rows", len(res.Rows), len(want))
	}
	if res.Stats.Flash.PageReads != 0 || res.Stats.Flash.PageWrites != 0 {
		t.Fatalf("visible-only query touched flash: %+v", res.Stats.Flash)
	}
	if res.Stats.BusDown == 0 {
		t.Fatal("expected downlink transfer")
	}
}

func TestStatsBreakdownCoversCost(t *testing.T) {
	f := newFixture(t, 9, defaultCards())
	sql := `SELECT T0.id, T1.id, T12.id, T1.v1 FROM T0, T1, T12 WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id AND T1.v1 < '0000000100' AND T12.h2 < '0000000100'`
	res, err := f.db.RunCtx(context.Background(), sql, QueryConfig{Strategy: StratCrossPre})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SimTime <= 0 || res.Stats.IOTime <= 0 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	var io, sim time.Duration
	for _, op := range res.Stats.Ops {
		io += f.db.opts.Model.IOTime(op.Sample)
		sim += op.Sim
	}
	if io <= 0 || io > res.Stats.IOTime || sim > res.Stats.SimTime {
		t.Fatalf("ops sum to io %v sim %v, stats io %v sim %v", io, sim, res.Stats.IOTime, res.Stats.SimTime)
	}
	if res.Stats.RAMHigh > f.db.RAM.Budget() {
		t.Fatalf("RAM high water %d exceeds budget", res.Stats.RAMHigh)
	}
}

func TestUnsupportedQueries(t *testing.T) {
	f := newFixture(t, 3, map[string]int{"T0": 100, "T1": 30, "T2": 30, "T11": 10, "T12": 10})
	bad := []string{
		`SELECT T0.id FROM T0, T0 WHERE T0.fk1 = T0.id`,         // self join
		`SELECT T0.id FROM T0, T11 WHERE T0.fk1 = T11.id`,       // wrong fk target
		`SELECT T0.id FROM T0, T2 WHERE T0.v1 = T2.v1`,          // non-key join
		`SELECT T1.id, T2.id FROM T1, T2 WHERE T1.fk11 = T2.id`, // fk mismatch
		`SELECT T0.id FROM T0, T1`,                              // missing join
		`SELECT nosuch FROM T0`,                                 // unknown col
		`SELECT T0.fk1 FROM T0`,                                 // fk projection
		`SELECT T11.id, T12.id FROM T11, T12`,                   // anchor absent
		`SELECT T0.id FROM T0 WHERE v1 < 3`,                     // type mismatch
	}
	for _, sql := range bad {
		if _, err := f.db.Run(sql); err == nil {
			t.Fatalf("accepted %q", sql)
		}
	}
}

func TestCountStar(t *testing.T) {
	f := newFixture(t, 19, defaultCards())
	cases := []string{
		`SELECT COUNT(*) FROM T0, T1, T12 WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id AND T1.v1 < '0000000300' AND T12.h2 < '0000000100'`,
		`SELECT COUNT(*) FROM T12 WHERE h1 = '0000000007'`,
		`SELECT COUNT(*) FROM T2 WHERE v2 < '0000000200'`, // visible-only path
		`SELECT COUNT(*) FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.v1 < '0000000000'`,
	}
	for _, sql := range cases {
		// Reference count: strip COUNT(*) down to the anchor projection.
		ref := f.refAnswer(t, sql)
		res, err := f.db.Run(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if len(res.Rows) != 1 || res.Columns[0] != "count(*)" {
			t.Fatalf("%s: result shape %v %v", sql, res.Columns, res.Rows)
		}
		if res.Rows[0][0].I != int64(len(ref)) {
			t.Fatalf("%s: count %d, want %d", sql, res.Rows[0][0].I, len(ref))
		}
		checkNoLeak(t, f.db, sql)
	}
	// COUNT(*) with other projections is rejected by the grammar.
	if _, err := f.db.Run(`SELECT COUNT(*), id FROM T2`); err == nil {
		t.Fatal("COUNT with projections accepted")
	}
}
