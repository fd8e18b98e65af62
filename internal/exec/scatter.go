package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"ghostdb/internal/query"
	"ghostdb/internal/schema"
)

// This file is the cross-token fan-out path: forest queries — FROM sets
// spanning several schema trees, and therefore several secure tokens —
// decompose into one single-tree sub-query per tree (query.Resolve built
// the parts), run each part as an ordinary session on its own token, and
// compose the cross product on the untrusted side.
//
// Two properties make this composition safe and exact:
//
//   - Joins follow fk edges and fk edges never cross trees, so the
//     relational semantics of a forest FROM set *is* the cross product
//     of the per-tree sub-queries. No hidden data relates the trees.
//   - Each part is a complete, independently-admitted session on its
//     token (ObliDB-style up-front grant), so per-token behaviour —
//     leak surface included — is exactly the mono-token engine's. The
//     merge is pure untrusted-side computation over results the
//     untrusted side was handed anyway: no token work, no bus bytes.

// planScatter builds the cross-token plan of a forest query: one
// sub-plan per part, each on the token its tree is placed on. The
// top-level plan is a pure composition record — admission happens per
// part, on each part's own token.
func (db *DB) planScatter(q *query.Query, cfg QueryConfig) (*Plan, error) {
	p := &Plan{
		SQL:       q.SQL,
		Anchor:    db.Sch.Tables[q.Anchor].Name,
		CountOnly: q.CountOnly,
		Projector: cfg.Projector,
		Shard:     -1,
	}
	for _, part := range q.Parts {
		sub, err := db.PlanQuery(part, cfg)
		if err != nil {
			return nil, fmt.Errorf("exec: scatter part %q: %w", part.SQL, err)
		}
		p.Parts = append(p.Parts, sub)
		p.Tables = append(p.Tables, sub.Tables...)
		p.HiddenSel = append(p.HiddenSel, sub.HiddenSel...)
		if sub.MinBuffers > p.MinBuffers {
			p.MinBuffers = sub.MinBuffers
		}
		if sub.WantBuffers > p.WantBuffers {
			p.WantBuffers = sub.WantBuffers
		}
		if sub.TotalBuffers > p.TotalBuffers {
			p.TotalBuffers = sub.TotalBuffers
		}
		p.BufferBytes = sub.BufferBytes
		p.EstPageReads += sub.EstPageReads
		p.EstPageWrites += sub.EstPageWrites
		// Tokens run in parallel: the estimated critical path is the
		// slowest part, not the sum.
		if sub.EstCost > p.EstCost {
			p.EstCost = sub.EstCost
		}
	}
	return p, nil
}

// shardsOf returns the distinct token ordinals a resolved query touches,
// ascending — the result cache's version-vector key set. It is a pure
// function of the query text and the placement (itself a pure function
// of the schema), so using it in cache bookkeeping leaks nothing.
func (db *DB) shardsOf(q *query.Query) []int {
	seen := map[int]bool{}
	var out []int
	for _, ti := range q.Tables {
		s := db.place.Of(ti)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}

// runScatter executes a cross-token plan: every part runs as a normal
// admitted session on its own token, in parallel (that is the whole
// point of sharding — the tokens' flash and bus pipelines genuinely
// overlap), and the untrusted side composes the cross product.
func (db *DB) runScatter(ctx context.Context, q *query.Query, plan *Plan, cfg QueryConfig) (*Result, error) {
	// One part failing dooms the whole query: cancel the siblings so
	// still-queued sub-sessions abandon their admission slots instead of
	// running to completion for an answer nobody will see.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	parent := cfg.traceParent()
	parts := make([]*Result, len(plan.Parts))
	errs := make([]error, len(plan.Parts))
	var wg sync.WaitGroup
	for i := range plan.Parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			legCfg := cfg
			legCfg.span = parent.Start("scatter")
			legCfg.span.SetNote(fmt.Sprintf("part %d", i))
			parts[i], errs[i] = db.runSelectOn(ctx, q.Parts[i], plan.Parts[i], legCfg)
			legCfg.span.End()
			if errs[i] != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return nil, err
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	mergeSp := parent.Start("merge")
	res, err := db.mergeScatter(q, parts)
	mergeSp.End()
	return res, err
}

// mergeScatter composes the per-part results into the forest query's
// answer: the cross product of the parts' row sets, with COUNT(*) parts
// contributing their count as a row multiplicity. Pure untrusted-side
// work over data the untrusted side already holds.
func (db *DB) mergeScatter(q *query.Query, parts []*Result) (*Result, error) {
	res := &Result{}

	// Row multiplicity from filter-only (COUNT) parts; row sets from the
	// projecting parts.
	mult := 1
	rowsets := make([][]schema.Row, len(parts))
	for gi, pr := range parts {
		if q.Parts[gi].CountOnly && !q.CountOnly {
			if len(pr.Rows) != 1 || len(pr.Rows[0]) != 1 {
				return nil, fmt.Errorf("exec: scatter count part returned %d rows", len(pr.Rows))
			}
			mult *= int(pr.Rows[0][0].I)
		} else {
			rowsets[gi] = pr.Rows
			// The cross rows keep the part's char bytes alive; counting
			// all its slack over-estimates, never under-estimates.
			res.slack += pr.slack
		}
	}

	if q.CountOnly {
		n := int64(1)
		for _, pr := range parts {
			n *= pr.Rows[0][0].I
		}
		res.Columns = []string{"count(*)"}
		res.Rows = []schema.Row{{schema.IntVal(n)}}
	} else {
		for _, p := range q.Projections {
			res.Columns = append(res.Columns, db.columnLabel(p))
		}
		res.Rows = crossRows(q, rowsets, mult)
	}
	res.Stats = mergeScatterStats(parts)
	return res, nil
}

// crossRows materializes the cross product: one output row per
// combination of part rows, repeated mult times, columns picked via the
// resolver's PartProj mapping.
func crossRows(q *query.Query, rowsets [][]schema.Row, mult int) []schema.Row {
	if mult <= 0 {
		return []schema.Row{}
	}
	var active []int // parts that contribute rows
	total := mult
	for gi, rs := range rowsets {
		if rs == nil {
			continue
		}
		active = append(active, gi)
		total *= len(rs)
	}
	out := make([]schema.Row, 0, total)
	if total == 0 {
		return out
	}
	idx := make([]int, len(rowsets))
	for {
		row := make(schema.Row, len(q.Projections))
		for i, pc := range q.PartProj {
			row[i] = rowsets[pc.Part][idx[pc.Part]][pc.Col]
		}
		for m := 0; m < mult; m++ {
			out = append(out, row)
		}
		// Odometer over the active parts (last part varies fastest).
		k := len(active) - 1
		for ; k >= 0; k-- {
			gi := active[k]
			idx[gi]++
			if idx[gi] < len(rowsets[gi]) {
				break
			}
			idx[gi] = 0
		}
		if k < 0 {
			return out
		}
	}
}

// mergeScatterStats folds the parts' session costs into the client-level
// view: byte and I/O counters sum (they really happened, once each, on
// their tokens — per-token Totals already hold them shard by shard), the
// simulated time is the slowest part (the tokens ran in parallel), and
// Scatter records the fan-out width.
func mergeScatterStats(parts []*Result) Stats {
	st := Stats{
		Shard:    -1,
		Scatter:  len(parts),
		Strategy: map[string]Strategy{},
	}
	for _, pr := range parts {
		ps := pr.Stats
		st.IOTime += ps.IOTime
		st.CommTime += ps.CommTime
		if ps.SimTime > st.SimTime {
			st.SimTime = ps.SimTime
		}
		// Wall-clock waits overlapped (the legs queued in parallel), so
		// the client-visible wait is the slowest leg's, like SimTime.
		if ps.QueueWait > st.QueueWait {
			st.QueueWait = ps.QueueWait
		}
		st.Ops = append(st.Ops, ps.Ops...)
		st.Flash = st.Flash.Add(ps.Flash)
		st.BusDown += ps.BusDown
		st.BusUp += ps.BusUp
		if ps.RAMHigh > st.RAMHigh {
			st.RAMHigh = ps.RAMHigh
		}
		if ps.PlanMinBuffers > st.PlanMinBuffers {
			st.PlanMinBuffers = ps.PlanMinBuffers
		}
		if ps.GrantBuffers > st.GrantBuffers {
			st.GrantBuffers = ps.GrantBuffers
		}
		for k, v := range ps.Strategy {
			st.Strategy[k] = v
		}
		st.Projector = ps.Projector
	}
	return st
}
