package query

import (
	"fmt"
	"sort"
	"strings"

	"ghostdb/internal/schema"
	"ghostdb/internal/sqlparse"
)

// SetCol is one resolved SET clause of an UPDATE.
type SetCol struct {
	ColIdx int // column position (never IDCol, never a foreign key)
	Hidden bool
	Val    schema.Value
}

// DML is a resolved UPDATE or DELETE: single-table by design (the
// tree-structured schema's fk edges are immutable, so multi-table DML
// has no meaning here), with the same conjunctive predicate class as
// SELECT restricted to that table.
type DML struct {
	SQL    string
	Table  int
	Delete bool     // true for DELETE, false for UPDATE
	Sets   []SetCol // UPDATE only
	Preds  []Pred
}

// HiddenSets reports whether any SET clause targets a hidden column.
func (d *DML) HiddenSets() bool {
	for _, s := range d.Sets {
		if s.Hidden {
			return true
		}
	}
	return false
}

// HiddenSetCols lists the hidden columns the SET clauses target, in
// clause order.
func (d *DML) HiddenSetCols() []int {
	var cols []int
	for _, s := range d.Sets {
		if s.Hidden {
			cols = append(cols, s.ColIdx)
		}
	}
	return cols
}

// VisibleSets reports whether any SET clause targets a visible column.
func (d *DML) VisibleSets() bool {
	for _, s := range d.Sets {
		if !s.Hidden {
			return true
		}
	}
	return false
}

// HiddenAttrPreds reports whether any predicate tests a hidden data
// attribute (id predicates excluded: identifiers are public).
func (d *DML) HiddenAttrPreds() bool {
	for _, p := range d.Preds {
		if p.Hidden && p.ColIdx != IDCol {
			return true
		}
	}
	return false
}

// ResolveUpdate binds an UPDATE against the schema. Beyond binding, it
// enforces the write-path security invariant: an UPDATE that touches
// *visible* columns must be derivable from public data alone — every
// WHERE predicate on a visible column or on the id — because applying
// it tells the untrusted store exactly which rows matched. A hidden
// predicate may only drive hidden-column writes (which stay on the
// token) and deletes (tombstones, which never reach the untrusted
// side).
func ResolveUpdate(sch *schema.Schema, upd *sqlparse.Update, sql string) (*DML, error) {
	d, err := resolveDMLTarget(sch, upd.Table, upd.Preds, sql)
	if err != nil {
		return nil, err
	}
	if len(upd.Sets) == 0 {
		return nil, fmt.Errorf("%w: UPDATE without SET", ErrUnsupported)
	}
	t := sch.Tables[d.Table]
	seen := map[int]bool{}
	for _, a := range upd.Sets {
		ci, err := colIndex(t, a.Column)
		if err != nil {
			return nil, err
		}
		if ci == IDCol {
			return nil, fmt.Errorf("%w: the surrogate id is immutable", ErrUnsupported)
		}
		if seen[ci] {
			return nil, fmt.Errorf("query: column %q set twice", a.Column)
		}
		seen[ci] = true
		col := t.Columns[ci]
		v, err := coerce(a.Value, col)
		if err != nil {
			return nil, fmt.Errorf("query: SET %s.%s: %w", t.Name, col.Name, err)
		}
		d.Sets = append(d.Sets, SetCol{ColIdx: ci, Hidden: col.Hidden, Val: v})
	}
	if d.VisibleSets() && d.HiddenAttrPreds() {
		return nil, fmt.Errorf("%w: an UPDATE of visible columns cannot be qualified by hidden "+
			"predicates (the matched row set would reach the untrusted store)", ErrUnsupported)
	}
	return d, nil
}

// ResolveDelete binds a DELETE against the schema. Deletes become
// secure-side tombstones, so any predicate class is allowed.
func ResolveDelete(sch *schema.Schema, del *sqlparse.Delete, sql string) (*DML, error) {
	d, err := resolveDMLTarget(sch, del.Table, del.Preds, sql)
	if err != nil {
		return nil, err
	}
	d.Delete = true
	return d, nil
}

// resolveDMLTarget binds the target table and the WHERE conjuncts of a
// DML statement.
func resolveDMLTarget(sch *schema.Schema, table string, preds []sqlparse.Predicate, sql string) (*DML, error) {
	t, ok := sch.Lookup(table)
	if !ok {
		return nil, fmt.Errorf("query: unknown table %q", table)
	}
	d := &DML{SQL: sql, Table: t.Index}
	for _, p := range preds {
		if p.Col.Table != "" && !strings.EqualFold(p.Col.Table, table) {
			return nil, fmt.Errorf("%w: DML predicate references table %q (single-table only)",
				ErrUnsupported, p.Col.Table)
		}
		ci, err := colIndex(t, p.Col.Column)
		if err != nil {
			return nil, err
		}
		rp := Pred{Table: t.Index, ColIdx: ci, Op: p.Op}
		col := schema.Column{Kind: schema.KindInt}
		if ci == IDCol {
			rp.Hidden = true
		} else {
			col = t.Columns[ci]
			rp.Hidden = col.Hidden
		}
		rp.Lo, err = coerce(p.Lo, col)
		if err != nil {
			return nil, fmt.Errorf("query: predicate on %s.%s: %w", t.Name, p.Col.Column, err)
		}
		if p.Op == sqlparse.OpBetween {
			rp.Hi, err = coerce(p.Hi, col)
			if err != nil {
				return nil, err
			}
		}
		d.Preds = append(d.Preds, rp)
	}
	return d, nil
}

// Canonical renders the resolved statement as normalized text: like
// Query.Canonical it collapses surface variants, and like it, the text
// reveals nothing beyond the submitted SQL. DML results are never
// cached, but the canonical form is what traces, the slow log and
// Explain display.
func (d *DML) Canonical() string {
	var b strings.Builder
	if d.Delete {
		fmt.Fprintf(&b, "delete from t%d", d.Table)
	} else {
		fmt.Fprintf(&b, "update t%d set ", d.Table)
		sets := make([]string, len(d.Sets))
		for i, s := range d.Sets {
			sets[i] = fmt.Sprintf("c%d=%s", s.ColIdx, canonValue(s.Val))
		}
		sort.Strings(sets)
		b.WriteString(strings.Join(sets, ","))
	}
	if len(d.Preds) > 0 {
		conj := make([]string, len(d.Preds))
		for i, p := range d.Preds {
			conj[i] = canonPred(p)
		}
		sort.Strings(conj)
		b.WriteString(" where ")
		b.WriteString(strings.Join(conj, " and "))
	}
	return b.String()
}
