package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ghostdb/internal/schema"
)

// Property test: randomly generated SPJ queries over the tree schema
// produce exactly the reference engine's answer, regardless of forced
// strategy and projector. This exercises the whole operator zoo — merge
// reduction, cross absorption, Bloom false-positive elimination, MJoin
// batching — against arbitrary predicate/projection combinations.

// subtreeShapes enumerates rooted connected table sets with their join
// clauses.
var subtreeShapes = []struct {
	tables []string
	joins  string
}{
	{[]string{"T0"}, ""},
	{[]string{"T1"}, ""},
	{[]string{"T12"}, ""},
	{[]string{"T0", "T1"}, "T0.fk1 = T1.id"},
	{[]string{"T0", "T2"}, "T0.fk2 = T2.id"},
	{[]string{"T1", "T12"}, "T1.fk12 = T12.id"},
	{[]string{"T1", "T11"}, "T1.fk11 = T11.id"},
	{[]string{"T0", "T1", "T12"}, "T0.fk1 = T1.id AND T1.fk12 = T12.id"},
	{[]string{"T0", "T1", "T2"}, "T0.fk1 = T1.id AND T0.fk2 = T2.id"},
	{[]string{"T1", "T11", "T12"}, "T1.fk11 = T11.id AND T1.fk12 = T12.id"},
	{[]string{"T0", "T1", "T11", "T12", "T2"},
		"T0.fk1 = T1.id AND T0.fk2 = T2.id AND T1.fk11 = T11.id AND T1.fk12 = T12.id"},
}

var propOps = []string{"=", "<", "<=", ">", ">=", "<>"}

// randomQuery builds a random supported query from an rng.
func randomQuery(rng *rand.Rand) string {
	shape := subtreeShapes[rng.Intn(len(subtreeShapes))]
	var conjuncts []string
	if shape.joins != "" {
		conjuncts = append(conjuncts, shape.joins)
	}
	// 1..3 selection predicates on random tables/columns.
	nPred := 1 + rng.Intn(3)
	for i := 0; i < nPred; i++ {
		tb := shape.tables[rng.Intn(len(shape.tables))]
		kind := rng.Intn(7)
		switch {
		case kind == 0: // id predicate
			conjuncts = append(conjuncts, fmt.Sprintf("%s.id %s %d",
				tb, propOps[rng.Intn(len(propOps))], rng.Intn(400)))
		case kind == 1: // BETWEEN
			lo := rng.Intn(900)
			hi := lo + rng.Intn(1000-lo)
			col := randomCol(rng)
			conjuncts = append(conjuncts, fmt.Sprintf("%s.%s BETWEEN '%010d' AND '%010d'", tb, col, lo, hi))
		default:
			col := randomCol(rng)
			op := propOps[rng.Intn(len(propOps))]
			conjuncts = append(conjuncts, fmt.Sprintf("%s.%s %s '%010d'", tb, col, op, rng.Intn(1000)))
		}
	}
	// 1..4 projections.
	var projs []string
	nProj := 1 + rng.Intn(4)
	for i := 0; i < nProj; i++ {
		tb := shape.tables[rng.Intn(len(shape.tables))]
		switch rng.Intn(3) {
		case 0:
			projs = append(projs, tb+".id")
		default:
			projs = append(projs, tb+"."+randomCol(rng))
		}
	}
	sql := fmt.Sprintf("SELECT %s FROM %s", strings.Join(projs, ", "), strings.Join(shape.tables, ", "))
	if len(conjuncts) > 0 {
		sql += " WHERE " + strings.Join(conjuncts, " AND ")
	}
	return sql
}

func randomCol(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return fmt.Sprintf("v%d", 1+rng.Intn(3))
	}
	return fmt.Sprintf("h%d", 1+rng.Intn(3))
}

func TestRandomQueriesMatchReferenceProperty(t *testing.T) {
	f := newFixture(t, 77, map[string]int{"T0": 1200, "T1": 150, "T2": 120, "T11": 40, "T12": 40})
	strategies := []Strategy{StratAuto, StratPre, StratCrossPre, StratPost,
		StratCrossPost, StratPostSelect, StratNoFilter}
	projectors := []Projector{ProjectBloom, ProjectNoBF, ProjectBruteForce}

	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sql := randomQuery(rng)
		want := f.refAnswer(t, sql)
		s := strategies[rng.Intn(len(strategies))]
		pj := projectors[rng.Intn(len(projectors))]
		res, err := f.db.RunCtx(context.Background(), sql, QueryConfig{Strategy: s, Projector: pj})
		if err != nil {
			if errors.Is(err, ErrBloomInfeasible) {
				return true
			}
			t.Logf("seed %d [%v/%v] %s: %v", seed, s, pj, sql, err)
			return false
		}
		if !rowsEqual(res.Rows, want) {
			t.Logf("seed %d [%v/%v]: %d rows vs %d\nsql: %s", seed, s, pj, len(res.Rows), len(want), sql)
			return false
		}
		if f.db.RAM.InUse() != 0 {
			t.Logf("seed %d: RAM leak", seed)
			return false
		}
		ups := f.db.Bus.UplinkRecords()
		if len(ups) != 1 || ups[0].Kind != "query" {
			t.Logf("seed %d: leak: %+v", seed, ups)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 120}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRandomInsertsProperty(t *testing.T) {
	f := newFixture(t, 5, map[string]int{"T0": 300, "T1": 60, "T2": 50, "T11": 20, "T12": 20})
	rng := rand.New(rand.NewSource(31))
	rows := map[string]int{"T0": 300, "T1": 60, "T2": 50, "T11": 20, "T12": 20}
	pad10 := func(v int) string { return fmt.Sprintf("%010d", v) }

	insert := func(tb string, fkCols []string, fkTargets []string) {
		var cols, vals []string
		for i, fc := range fkCols {
			cols = append(cols, fc)
			vals = append(vals, fmt.Sprintf("%d", rng.Intn(rows[fkTargets[i]])))
		}
		var refFKs = map[int]uint32{}
		for i, tgt := range fkTargets {
			tt, _ := f.sch.Lookup(tgt)
			v := vals[i]
			var x int
			fmt.Sscanf(v, "%d", &x)
			refFKs[tt.Index] = uint32(x)
		}
		var row []string
		for i := 0; i < 6; i++ {
			row = append(row, pad10(rng.Intn(1000)))
		}
		for i, c := range []string{"v1", "v2", "v3", "h1", "h2", "h3"} {
			cols = append(cols, c)
			vals = append(vals, "'"+row[i]+"'")
		}
		sql := fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)", tb, strings.Join(cols, ", "), strings.Join(vals, ", "))
		if _, err := f.db.Run(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		tt, _ := f.sch.Lookup(tb)
		refRow := mkRow(row...)
		f.ref.Insert(tt.Index, refRow, refFKs)
		rows[tb]++
	}

	for i := 0; i < 30; i++ {
		switch rng.Intn(5) {
		case 0:
			insert("T12", nil, nil)
		case 1:
			insert("T11", nil, nil)
		case 2:
			insert("T2", nil, nil)
		case 3:
			insert("T1", []string{"fk11", "fk12"}, []string{"T11", "T12"})
		default:
			insert("T0", []string{"fk1", "fk2"}, []string{"T1", "T2"})
		}
		if i%5 != 4 {
			continue
		}
		// Every few inserts, verify a random query still matches.
		sql := randomQuery(rng)
		want := f.refAnswer(t, sql)
		res, err := f.db.Run(sql)
		if err != nil {
			t.Fatalf("after %d inserts: %s: %v", i+1, sql, err)
		}
		if !rowsEqual(res.Rows, want) {
			t.Fatalf("after %d inserts: %s: %d rows vs %d", i+1, sql, len(res.Rows), len(want))
		}
	}
}

func mkRow(vals ...string) schema.Row {
	row := make(schema.Row, len(vals))
	for i, v := range vals {
		row[i] = schema.CharVal(v)
	}
	return row
}
