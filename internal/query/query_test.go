package query

import (
	"errors"
	"strings"
	"testing"

	"ghostdb/internal/schema"
	"ghostdb/internal/sqlparse"
)

func testSchema(t *testing.T) *schema.Schema {
	t.Helper()
	attrs := []schema.Column{
		{Name: "v1", Kind: schema.KindChar, Width: 10},
		{Name: "num", Kind: schema.KindInt},
		{Name: "ratio", Kind: schema.KindFloat, Hidden: true},
		{Name: "h1", Kind: schema.KindChar, Width: 10, Hidden: true},
	}
	defs := []schema.TableDef{
		{Name: "T0", Columns: attrs, Refs: []schema.Ref{
			{FKColumn: "fk1", Child: "T1", Hidden: true},
			{FKColumn: "fk2", Child: "T2", Hidden: true}}},
		{Name: "T1", Columns: attrs, Refs: []schema.Ref{
			{FKColumn: "fk12", Child: "T12", Hidden: true}}},
		{Name: "T2", Columns: attrs},
		{Name: "T12", Columns: attrs},
	}
	s, err := schema.New(defs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func resolve(t *testing.T, sch *schema.Schema, sql string) (*Query, error) {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return Resolve(sch, stmt.(*sqlparse.Select), sql)
}

func mustResolve(t *testing.T, sch *schema.Schema, sql string) *Query {
	t.Helper()
	q, err := resolve(t, sch, sql)
	if err != nil {
		t.Fatalf("resolve %q: %v", sql, err)
	}
	return q
}

func TestAnchorComputation(t *testing.T) {
	sch := testSchema(t)
	cases := []struct {
		sql    string
		anchor string
	}{
		{`SELECT T0.id FROM T0, T1 WHERE T0.fk1 = T1.id`, "T0"},
		{`SELECT T1.id FROM T1, T12 WHERE T1.fk12 = T12.id`, "T1"},
		{`SELECT id FROM T12 WHERE h1 = 'x'`, "T12"},
		{`SELECT T0.id FROM T0, T1, T12, T2 WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id AND T0.fk2 = T2.id`, "T0"},
	}
	for _, c := range cases {
		q := mustResolve(t, sch, c.sql)
		if got := sch.Tables[q.Anchor].Name; got != c.anchor {
			t.Fatalf("%s: anchor %s, want %s", c.sql, got, c.anchor)
		}
	}
}

func TestPredicateClassification(t *testing.T) {
	sch := testSchema(t)
	q := mustResolve(t, sch,
		`SELECT T0.id FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.v1 = 'a' AND T1.h1 = 'b' AND T0.num < 5 AND T1.id = 3`)
	hidden := q.HiddenPreds()
	if len(hidden) != 2 { // h1 and the id predicate
		t.Fatalf("hidden preds = %d", len(hidden))
	}
	vis := q.VisiblePreds()
	t1, _ := sch.Lookup("T1")
	t0, _ := sch.Lookup("T0")
	if len(vis[t1.Index]) != 1 || len(vis[t0.Index]) != 1 {
		t.Fatalf("visible preds = %v", vis)
	}
	if !hidden[0].Hidden || hidden[0].ColIdx != 3 {
		t.Fatalf("hidden[0] = %+v", hidden[0])
	}
	// id predicates are routed to Secure.
	var idPred *Pred
	for i := range hidden {
		if hidden[i].ColIdx == IDCol {
			idPred = &hidden[i]
		}
	}
	if idPred == nil || !idPred.Hidden {
		t.Fatalf("id predicate not classified hidden: %+v", hidden)
	}
}

func TestProjectionExpansion(t *testing.T) {
	sch := testSchema(t)
	q := mustResolve(t, sch, `SELECT * FROM T12 WHERE v1 = 'x'`)
	// id + 4 columns.
	if len(q.Projections) != 5 || q.Projections[0].ColIdx != IDCol {
		t.Fatalf("star projections = %v", q.Projections)
	}
	q = mustResolve(t, sch, `SELECT T1.*, T0.id FROM T0, T1 WHERE T0.fk1 = T1.id`)
	if len(q.Projections) != 6 {
		t.Fatalf("table-star projections = %v", q.Projections)
	}
	tables := q.ProjTables()
	if len(tables) != 2 {
		t.Fatalf("proj tables = %v", tables)
	}
}

func TestLiteralCoercion(t *testing.T) {
	sch := testSchema(t)
	// Int literal for float column is fine.
	q := mustResolve(t, sch, `SELECT id FROM T2 WHERE ratio > 3`)
	if q.Preds[0].Lo.Kind != schema.KindFloat || q.Preds[0].Lo.Float() != 3 {
		t.Fatalf("coerced literal = %+v", q.Preds[0].Lo)
	}
	// Float literal for int column is not.
	if _, err := resolve(t, sch, `SELECT id FROM T2 WHERE num > 3.5`); err == nil {
		t.Fatal("float->int accepted")
	}
	// Overlong strings rejected.
	if _, err := resolve(t, sch, `SELECT id FROM T2 WHERE v1 = '12345678901'`); err == nil {
		t.Fatal("overlong string accepted")
	}
	// String for numeric rejected.
	if _, err := resolve(t, sch, `SELECT id FROM T2 WHERE num = 'x'`); err == nil {
		t.Fatal("string->int accepted")
	}
}

func TestAliases(t *testing.T) {
	sch := testSchema(t)
	q := mustResolve(t, sch, `SELECT a.id, b.v1 FROM T0 a, T1 b WHERE a.fk1 = b.id AND b.h1 = 'z'`)
	t1, _ := sch.Lookup("T1")
	if q.Projections[1].Table != t1.Index {
		t.Fatalf("alias projection resolved to %d", q.Projections[1].Table)
	}
	if _, err := resolve(t, sch, `SELECT x.id FROM T0 a, T1 a WHERE a.fk1 = a.id`); err == nil {
		t.Fatal("duplicate alias accepted")
	}
}

func TestUnqualifiedResolution(t *testing.T) {
	sch := testSchema(t)
	// v1 exists in both tables: ambiguous.
	if _, err := resolve(t, sch, `SELECT v1 FROM T0, T1 WHERE T0.fk1 = T1.id`); err == nil {
		t.Fatal("ambiguous column accepted")
	}
	// Unique fk name resolves unqualified.
	q := mustResolve(t, sch, `SELECT T0.id FROM T0, T1 WHERE fk1 = T1.id`)
	if len(q.Tables) != 2 {
		t.Fatalf("tables = %v", q.Tables)
	}
}

func TestJoinValidation(t *testing.T) {
	sch := testSchema(t)
	bad := []string{
		`SELECT T0.id FROM T0, T2 WHERE T0.fk1 = T2.id`,         // fk points elsewhere
		`SELECT T0.id FROM T0, T1 WHERE T0.id = T1.id`,          // id=id
		`SELECT T0.id FROM T0, T1 WHERE T0.v1 = T1.v1`,          // non-key
		`SELECT T0.id FROM T0, T1`,                              // disconnected
		`SELECT T1.id, T2.id FROM T1, T2 WHERE T1.fk12 = T2.id`, // wrong edge
		`SELECT T12.id, T2.id FROM T12, T2`,                     // no common anchor in FROM
		`SELECT T0.fk1 FROM T0`,                                 // fk projection
		`SELECT T0.id FROM T0, T0 WHERE T0.fk1 = T0.id`,         // self join
	}
	for _, sql := range bad {
		if _, err := resolve(t, sch, sql); err == nil {
			t.Fatalf("accepted %q", sql)
		}
	}
	// Both join orientations accepted.
	mustResolve(t, sch, `SELECT T0.id FROM T0, T1 WHERE T1.id = T0.fk1`)
}

func TestUnsupportedErrs(t *testing.T) {
	sch := testSchema(t)
	_, err := resolve(t, sch, `SELECT T0.id FROM T0, T0 WHERE T0.fk1 = T0.id`)
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("self-join error = %v", err)
	}
	if _, err := resolve(t, sch, `SELECT id FROM Nope`); err == nil ||
		!strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("unknown table error = %v", err)
	}
}

func TestBetweenResolution(t *testing.T) {
	sch := testSchema(t)
	q := mustResolve(t, sch, `SELECT id FROM T2 WHERE num BETWEEN 3 AND 9`)
	p := q.Preds[0]
	if p.Op != sqlparse.OpBetween || p.Lo.I != 3 || p.Hi.I != 9 {
		t.Fatalf("between = %+v", p)
	}
	q = mustResolve(t, sch, `SELECT id FROM T2 WHERE id BETWEEN 1 AND 5`)
	if q.Preds[0].ColIdx != IDCol || q.Preds[0].Hi.I != 5 {
		t.Fatalf("id between = %+v", q.Preds[0])
	}
}

// TestCanonicalNormalization: surface variants of one query must share a
// canonical key; genuinely different queries must not.
func TestCanonicalNormalization(t *testing.T) {
	sch := testSchema(t)
	base := mustResolve(t, sch, `SELECT T1.v1, T1.id FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.num = 5 AND T0.v1 < 'mmm'`).Canonical()
	same := []string{
		"select   t1.V1 ,T1.ID  from T0 , T1 where t0.FK1=T1.id AND T1.num=5 AND T0.v1<'mmm'",
		`SELECT P.v1, P.id FROM T0 Q, T1 P WHERE Q.fk1 = P.id AND P.num = 5 AND Q.v1 < 'mmm'`,
		`SELECT T1.v1, T1.id FROM T0, T1 WHERE T0.v1 < 'mmm' AND T1.num = 5 AND T0.fk1 = T1.id`,
	}
	for _, sql := range same {
		if got := mustResolve(t, sch, sql).Canonical(); got != base {
			t.Errorf("%q canonicalizes to\n  %q\nwant\n  %q", sql, got, base)
		}
	}
	different := []string{
		`SELECT T1.v1, T1.id FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.num = 6 AND T0.v1 < 'mmm'`,
		`SELECT T1.id, T1.v1 FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.num = 5 AND T0.v1 < 'mmm'`,
		`SELECT T1.v1, T1.id FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.num <= 5 AND T0.v1 < 'mmm'`,
		`SELECT COUNT(*) FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.num = 5 AND T0.v1 < 'mmm'`,
	}
	seen := map[string]string{base: "base"}
	for _, sql := range different {
		key := mustResolve(t, sch, sql).Canonical()
		if prev, dup := seen[key]; dup {
			t.Errorf("%q collides with %q on key %q", sql, prev, key)
		}
		seen[key] = sql
	}
	// Typed literals must not alias across kinds, and equivalent float
	// spellings must normalize.
	f1 := mustResolve(t, sch, `SELECT T2.id FROM T2 WHERE T2.ratio = 1.5`).Canonical()
	f2 := mustResolve(t, sch, `SELECT T2.id FROM T2 WHERE T2.ratio = 1.50`).Canonical()
	if f1 != f2 {
		t.Errorf("float literal spellings diverge: %q vs %q", f1, f2)
	}
	s1 := mustResolve(t, sch, `SELECT T2.id FROM T2 WHERE T2.v1 = '5'`).Canonical()
	i1 := mustResolve(t, sch, `SELECT T2.id FROM T2 WHERE T2.num = 5`).Canonical()
	if s1 == i1 {
		t.Error("char and int literals alias in the canonical form")
	}
	// Star expansion shares the spelled-out key.
	st := mustResolve(t, sch, `SELECT * FROM T2 WHERE T2.num = 5`).Canonical()
	sp := mustResolve(t, sch, `SELECT T2.id, T2.v1, T2.num, T2.ratio, T2.h1 FROM T2 WHERE T2.num = 5`).Canonical()
	if st != sp {
		t.Errorf("star vs spelled-out diverge: %q vs %q", st, sp)
	}
}
