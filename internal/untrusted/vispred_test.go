package untrusted

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ghostdb/internal/bus"
	"ghostdb/internal/query"
	"ghostdb/internal/schema"
	"ghostdb/internal/sqlparse"
)

// The compiled predicates (visPred) must select exactly the rows a
// direct evaluation selects: decode each row's value and order it
// against the predicate's bounds with Value.Compare.

var allOps = []sqlparse.CompareOp{sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt,
	sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe, sqlparse.OpBetween}

// predTable loads n random rows into a table with a char(6) column, an
// int column and a char(12) column (plus a hidden column the engine
// never sees): the widths cover the byte compare, the one-word compare
// and the two-word compare. Chars are drawn from letters, which all sort
// above the space padding, so byte order and string order agree.
func predTable(t testing.TB, rng *rand.Rand, n int) (*Engine, *schema.Table) {
	t.Helper()
	sch, err := schema.New([]schema.TableDef{{Name: "T", Columns: []schema.Column{
		{Name: "c", Kind: schema.KindChar, Width: 6},
		{Name: "h", Kind: schema.KindChar, Width: 4, Hidden: true},
		{Name: "n", Kind: schema.KindInt},
		{Name: "w", Kind: schema.KindChar, Width: 12},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(sch, bus.NewChannel(1.5))
	tb := sch.Tables[0]
	cs, ns, ws := make([]byte, n*6), make([]byte, n*8), make([]byte, n*12)
	for i := 0; i < n; i++ {
		if err := schema.EncodeValue(cs[i*6:(i+1)*6], randChar(rng, 6)); err != nil {
			t.Fatal(err)
		}
		if err := schema.EncodeValue(ns[i*8:(i+1)*8], randInt(rng)); err != nil {
			t.Fatal(err)
		}
		if err := schema.EncodeValue(ws[i*12:(i+1)*12], randChar(rng, 12)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.LoadColumn(tb.Index, 0, 6, cs); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadColumn(tb.Index, 2, 8, ns); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadColumn(tb.Index, 3, 12, ws); err != nil {
		t.Fatal(err)
	}
	return e, tb
}

// randChar draws up to width letters; wide values use two letters, so
// many share their first eight bytes and the second word decides.
func randChar(rng *rand.Rand, width int) schema.Value {
	letters := "abcd"
	if width > 8 {
		letters = "ab"
	}
	b := make([]byte, rng.Intn(width+1))
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return schema.CharVal(string(b))
}

// randInt draws from a small signed domain plus the int64 extremes, so
// bounds hit equal values and the key range's edges.
func randInt(rng *rand.Rand) schema.Value {
	switch rng.Intn(12) {
	case 0:
		return schema.IntVal(math.MinInt64)
	case 1:
		return schema.IntVal(math.MaxInt64)
	}
	return schema.IntVal(int64(rng.Intn(21) - 10))
}

// randPred draws a predicate on the id column or one of the table's
// visible columns.
func randPred(rng *rand.Rand, rows int) query.Pred {
	p := query.Pred{Op: allOps[rng.Intn(len(allOps))]}
	switch rng.Intn(4) {
	case 0:
		p.ColIdx = query.IDCol
		bound := func() schema.Value {
			switch rng.Intn(8) {
			case 0:
				return schema.IntVal(math.MinInt64)
			case 1:
				return schema.IntVal(math.MaxInt64)
			case 2:
				return schema.IntVal(-1)
			}
			return schema.IntVal(int64(rng.Intn(rows + 2)))
		}
		p.Lo, p.Hi = bound(), bound()
	case 1:
		p.ColIdx = 0
		p.Lo, p.Hi = randChar(rng, 6), randChar(rng, 6)
	case 2:
		p.ColIdx = 2
		p.Lo, p.Hi = randInt(rng), randInt(rng)
	default:
		p.ColIdx = 3
		p.Lo, p.Hi = randChar(rng, 12), randChar(rng, 12)
	}
	return p
}

// holdsDirect evaluates p on one row from decoded values.
func holdsDirect(t *testing.T, e *Engine, tb *schema.Table, p query.Pred, row int) bool {
	v := schema.IntVal(int64(row))
	if p.ColIdx != query.IDCol {
		var err error
		if v, err = e.Value(tb.Index, p.ColIdx, uint32(row)); err != nil {
			t.Fatal(err)
		}
	}
	c := v.Compare(p.Lo)
	switch p.Op {
	case sqlparse.OpEq:
		return c == 0
	case sqlparse.OpNe:
		return c != 0
	case sqlparse.OpLt:
		return c < 0
	case sqlparse.OpLe:
		return c <= 0
	case sqlparse.OpGt:
		return c > 0
	case sqlparse.OpGe:
		return c >= 0
	case sqlparse.OpBetween:
		return c >= 0 && v.Compare(p.Hi) <= 0
	}
	t.Fatalf("unknown operator %v", p.Op)
	return false
}

// checkConjunction compares CountVis and ComputeVis with the direct
// evaluation of preds over every row.
func checkConjunction(t *testing.T, e *Engine, tb *schema.Table, preds []query.Pred) {
	t.Helper()
	var want []uint32
	for row := 0; row < e.Rows(tb.Index); row++ {
		all := true
		for _, p := range preds {
			all = all && holdsDirect(t, e, tb, p, row)
		}
		if all {
			want = append(want, uint32(row))
		}
	}
	n, err := e.CountVis(tb.Index, preds)
	if err != nil {
		t.Fatal(err)
	}
	vr, err := e.ComputeVis(tb.Index, preds, nil, n)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(vr.IDs) {
		t.Fatalf("%v: CountVis %d, ComputeVis %d ids", preds, n, len(vr.IDs))
	}
	if !slices.Equal(vr.IDs, want) {
		t.Fatalf("%v: ids %v, direct evaluation %v", preds, vr.IDs, want)
	}
}

func TestCompiledPredsEveryOperator(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	e, tb := predTable(t, rng, 300)
	for _, col := range []int{query.IDCol, 0, 2, 3} {
		for _, op := range allOps {
			for i := 0; i < 25; i++ {
				p := randPred(rng, 300)
				for p.ColIdx != col {
					p = randPred(rng, 300)
				}
				p.Op = op
				checkConjunction(t, e, tb, []query.Pred{p})
			}
		}
	}
}

func TestCompiledPredsConjunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	e, tb := predTable(t, rng, 300)
	for i := 0; i < 400; i++ {
		preds := make([]query.Pred, 2+i%2)
		for j := range preds {
			preds[j] = randPred(rng, 300)
		}
		checkConjunction(t, e, tb, preds)
	}
}

// TestClippedScanMatchesFullScan: the row range the id predicates clip a
// scan to (clipRows) drops only rows the full conjunction rejects. Each
// random conjunction holds one to three id predicates, their literals
// often past the table's ends or at the int64 extremes, beside visible
// ones; scanVis must hit exactly the rows a test of every predicate on
// every row accepts.
func TestClippedScanMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, rows := range []int{0, 1, 2, 300} {
		e, tb := predTable(t, rng, rows)
		for i := 0; i < 400; i++ {
			var preds []query.Pred
			for len(preds) < 1+rng.Intn(3) {
				if p := randPred(rng, rows); p.ColIdx == query.IDCol {
					preds = append(preds, p)
				}
			}
			for j := rng.Intn(2); j > 0; j-- {
				preds = append(preds, randPred(rng, rows))
			}
			rng.Shuffle(len(preds), func(a, b int) { preds[a], preds[b] = preds[b], preds[a] })
			cps, err := e.compilePreds(tb.Index, preds)
			if err != nil {
				t.Fatal(err)
			}
			var full []int
			for row := 0; row < rows; row++ {
				if !slices.ContainsFunc(cps, func(p visPred) bool { return !p.holds(row) }) {
					full = append(full, row)
				}
			}
			var clipped []int
			scanVis(rows, cps, func(row int) { clipped = append(clipped, row) })
			if !slices.Equal(clipped, full) {
				t.Fatalf("%d rows, %v: clipped scan hits %v, full scan %v", rows, preds, clipped, full)
			}
		}
	}
}

// benchTable is the benchmark probe's shape: 20 000 rows of zero-padded
// char(10) values, one visible predicate of selectivity 0.05 and one
// projected column.
func benchTable(b *testing.B) (*Engine, []query.Pred, []int, int) {
	const rows, domain = 20000, 1000
	sch, err := schema.New([]schema.TableDef{{Name: "T", Columns: []schema.Column{
		{Name: "v1", Kind: schema.KindChar, Width: 10},
		{Name: "v2", Kind: schema.KindChar, Width: 10},
	}}})
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(sch, bus.NewChannel(1.5))
	rng := rand.New(rand.NewSource(1))
	for ci := range sch.Tables[0].Columns {
		data := make([]byte, 0, rows*10)
		for r := 0; r < rows; r++ {
			data = fmt.Appendf(data, "%010d", rng.Intn(domain))
		}
		if err := e.LoadColumn(0, ci, 10, data); err != nil {
			b.Fatal(err)
		}
	}
	preds := []query.Pred{{ColIdx: 0, Op: sqlparse.OpLt, Lo: schema.CharVal(fmt.Sprintf("%010d", domain/20))}}
	return e, preds, []int{1}, rows
}

// BenchmarkCountVis times the planner's selectivity count:
//
//	go test -run '^$' -bench Vis ./internal/untrusted
func BenchmarkCountVis(b *testing.B) {
	e, preds, _, rows := benchTable(b)
	for b.Loop() {
		if _, err := e.CountVis(0, preds); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

// BenchmarkComputeVis times the uncached Vis scan and its payload.
func BenchmarkComputeVis(b *testing.B) {
	e, preds, proj, rows := benchTable(b)
	for b.Loop() {
		if _, err := e.ComputeVis(0, preds, proj, rows/20); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}
