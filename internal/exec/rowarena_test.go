package exec

import (
	"strings"
	"testing"

	"ghostdb/internal/schema"
)

// cloneRows deep-copies rows, char bytes included, so later comparisons
// cannot share memory with what they check.
func cloneRows(rows []schema.Row) []schema.Row {
	out := make([]schema.Row, len(rows))
	for i, row := range rows {
		out[i] = make(schema.Row, len(row))
		for j, v := range row {
			v.S = strings.Clone(v.S)
			out[i][j] = v
		}
	}
	return out
}

// TestResultRowsIsolated: rows carved from one arena behave as if each
// had its own allocation. Appending to a row never writes into the next
// one, char values of a result survive every later statement on the
// token, and a result-cache hit returns the cold run's rows.
func TestResultRowsIsolated(t *testing.T) {
	cards := map[string]int{"T0": 600, "T1": 80, "T2": 60, "T11": 20, "T12": 20}
	q := `SELECT T0.id, T1.v1, T1.h1, T0.v2, T0.h3 FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.v1 < '0000000600' AND T1.h2 < '0000000500'`
	// One statement per row producer, all projecting char values.
	stmts := []struct {
		sql string
		cfg QueryConfig
	}{
		{q, QueryConfig{}},
		{q, QueryConfig{Projector: ProjectBruteForce}},
		{`SELECT id, v1, v3 FROM T1 WHERE v1 < '0000000700'`, QueryConfig{}},
	}
	f := newCachedFixture(t, 7, cards, 1<<20)
	var results []*Result
	var want [][]schema.Row
	for _, st := range stmts {
		res, err := f.db.RunCtx(t.Context(), st.sql, st.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) < 3 {
			t.Fatalf("%s: %d rows, the test needs several", st.sql, len(res.Rows))
		}
		if !rowsEqual(res.Rows, f.refAnswer(t, st.sql)) {
			t.Fatalf("%s: rows differ from the oracle", st.sql)
		}
		results = append(results, res)
		want = append(want, cloneRows(res.Rows))
	}

	// Later statements on the same token, each building its own rows.
	for _, proj := range []Projector{ProjectBloom, ProjectNoBF, ProjectBruteForce} {
		for _, sql := range testQueries {
			if _, err := f.db.RunCtx(t.Context(), sql, QueryConfig{Projector: proj}); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
	}
	for i, res := range results {
		if !rowsEqual(res.Rows, want[i]) {
			t.Fatalf("%s: rows changed after later statements", stmts[i].sql)
		}
		hit, err := f.db.RunCtx(t.Context(), stmts[i].sql, stmts[i].cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !hit.Stats.CacheHit || !rowsEqual(hit.Rows, want[i]) {
			t.Fatalf("%s: cache hit %t, rows equal to the cold run %t", stmts[i].sql, hit.Stats.CacheHit, rowsEqual(hit.Rows, want[i]))
		}
	}

	// Appending to a row reallocates it: the next row is untouched.
	for _, res := range results {
		for i := 0; i+1 < len(res.Rows); i++ {
			next := cloneRows(res.Rows[i+1 : i+2])
			_ = append(res.Rows[i], schema.IntVal(-1))
			if !rowsEqual(res.Rows[i+1:i+2], next) {
				t.Fatalf("appending to row %d overwrote row %d", i, i+1)
			}
		}
	}
}
