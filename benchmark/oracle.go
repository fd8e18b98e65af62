package main

import (
	"fmt"
	"time"

	"ghostdb/internal/query"
	"ghostdb/internal/ref"
	"ghostdb/internal/schema"
	"ghostdb/internal/sqlparse"
)

// oracle wraps the internal/ref evaluator: it applies the workload's
// writes in the order the engine saw them and answers its reads by
// brute force. Read counts are memoized per statement text until the
// next write, so a read-only stream pays for each distinct text once.
type oracle struct {
	sch     *schema.Schema
	eng     *ref.Engine
	version int
	memo    map[string]memoCount
	// full keeps whole answers of the current version for the
	// verification pass (paperq repeats 20 texts under 56 strategy
	// pairings); dropRows releases them.
	full map[string][]schema.Row

	evals    int
	evalTime time.Duration
}

type memoCount struct {
	version int
	count   int64
}

func newOracle(sch *schema.Schema, eng *ref.Engine) *oracle {
	return &oracle{sch: sch, eng: eng, memo: map[string]memoCount{}, full: map[string][]schema.Row{}}
}

// apply mirrors one write and returns the affected-row count (0 for an
// INSERT or a compaction, which changes no answer).
func (o *oracle) apply(st stmt) (int64, error) {
	switch st.kind {
	case kCompact:
		return 0, nil
	case kInsert:
		o.bump()
		o.eng.Insert(st.table, st.insRow, st.insFKs)
		return 0, nil
	}
	parsed, err := sqlparse.Parse(st.sql)
	if err != nil {
		return 0, fmt.Errorf("oracle: %w", err)
	}
	o.bump()
	switch p := parsed.(type) {
	case *sqlparse.Update:
		d, err := query.ResolveUpdate(o.sch, p, st.sql)
		if err != nil {
			return 0, fmt.Errorf("oracle: %w", err)
		}
		return int64(o.eng.Update(d)), nil
	case *sqlparse.Delete:
		d, err := query.ResolveDelete(o.sch, p, st.sql)
		if err != nil {
			return 0, fmt.Errorf("oracle: %w", err)
		}
		return int64(o.eng.Delete(d)), nil
	}
	return 0, fmt.Errorf("oracle: %s is not a write", st.sql)
}

// reset swaps in the oracle of a freshly built engine.
func (o *oracle) reset(eng *ref.Engine) {
	o.eng = eng
	o.bump()
}

// memoized reports whether count(st) would be answered from the memo.
func (o *oracle) memoized(st stmt) bool {
	m, ok := o.memo[st.sql]
	return ok && m.version == o.version
}

// dropRows releases the whole answers kept for the verification pass.
func (o *oracle) dropRows() { o.full = map[string][]schema.Row{} }

// bump invalidates every memoized answer: a write may change any of them.
func (o *oracle) bump() {
	o.version++
	if len(o.full) > 0 {
		o.dropRows()
	}
}

// rows answers one SELECT in full.
func (o *oracle) rows(st stmt) ([]schema.Row, int64, error) {
	if m, ok := o.memo[st.sql]; ok && m.version == o.version {
		if rows, ok := o.full[st.sql]; ok {
			return rows, m.count, nil
		}
	}
	parsed, err := sqlparse.Parse(st.sql)
	if err != nil {
		return nil, 0, fmt.Errorf("oracle: %w", err)
	}
	sel, ok := parsed.(*sqlparse.Select)
	if !ok {
		return nil, 0, fmt.Errorf("oracle: %s is not a SELECT", st.sql)
	}
	q, err := query.Resolve(o.sch, sel, st.sql)
	if err != nil {
		return nil, 0, fmt.Errorf("oracle: %w", err)
	}
	start := time.Now()
	rows, err := o.eng.Evaluate(q)
	o.evalTime += time.Since(start)
	o.evals++
	if err != nil {
		return nil, 0, fmt.Errorf("oracle: %w", err)
	}
	count := int64(len(rows))
	if q.CountOnly {
		// The engine answers COUNT(*) with one row carrying the count; ref
		// does the same for forest queries and returns the qualifying rows
		// themselves for single-tree ones.
		if len(q.Parts) > 0 {
			count = rows[0][0].I
		}
		rows = []schema.Row{{schema.IntVal(count)}}
	}
	o.memo[st.sql] = memoCount{o.version, count}
	o.full[st.sql] = rows
	return rows, count, nil
}

// count is rows without the rows, memoized until the next write.
func (o *oracle) count(st stmt) (int64, error) {
	if m, ok := o.memo[st.sql]; ok && m.version == o.version {
		return m.count, nil
	}
	_, n, err := o.rows(st)
	return n, err
}

// meanEval is the measured cost of one uncached evaluation.
func (o *oracle) meanEval() time.Duration {
	if o.evals == 0 {
		return time.Millisecond
	}
	return o.evalTime / time.Duration(o.evals)
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
