package exec

import (
	"slices"
	"sort"

	"ghostdb/internal/query"
	"ghostdb/internal/ram"
	"ghostdb/internal/schema"
	"ghostdb/internal/store"
)

// queryShape is the operator shape of a single-token SELECT plan, derived
// once by PlanQuery: the plan's floor is summed from it and the operators
// claim their buffers from it, so the two cannot disagree. Prepared plans
// are shared across concurrent runs, so a shape is never written after
// PlanQuery returns; each run keeps its mutable state apart (tableProj).
type queryShape struct {
	anchor int
	// needed lists the non-anchor tables with a QEPSJ result column,
	// ascending: every projected, exact or Post-Select table.
	needed []int
	// exact marks the tables whose visible selection is verified exactly
	// at projection time (Post, Cross-Post, No-Filter); postSelect those
	// given a Post-Select pass.
	exact, postSelect map[int]bool
	// specs holds the projection spec of every table in the query.
	specs map[int]*projSpec
	// proj lists the non-anchor tables the projection looks at (projected
	// or exact), ascending; mjoin is the part of it the MJoin runs on
	// (values to fetch or presence to verify).
	proj, mjoin []*projSpec
	// idTables lists the non-anchor tables whose id is projected, in
	// projection order: the final join reads their QEPSJ columns.
	idTables []int
}

// projSpec is one table's projection spec (§4: the Project algorithm
// works "on a table-by-table basis").
type projSpec struct {
	table int
	// visCols are the projected visible columns, ascending: the layout of
	// the table's Vis spool rows. hidCols are the projected hidden
	// columns, in projection order.
	visCols, hidCols []int
	visW, hidW       int
	tupleW           int // an MJoin tuple: position, then the values
	// off maps each projected column to its byte offset in a spool row
	// (id, visible values) and in an MJoin tuple (position, visible
	// values, hidden values): both layouts share their visible prefix.
	off map[int]int
	// presence marks exact visible verification at projection time.
	presence bool
	// fixed is the MJoin's fixed readers and writer and minBatch its
	// smallest batch staging area, in buffers.
	fixed, minBatch int
}

// uncrossed maps a Cross strategy to its plain counterpart, the strategy
// it degrades to when no hidden predicate crosses at its table.
func uncrossed(s Strategy) Strategy {
	switch s {
	case StratCrossPre:
		return StratPre
	case StratCrossPost:
		return StratPost
	case StratCrossPostSelect:
		return StratPostSelect
	}
	return s
}

// newShape derives a SELECT's operator shape from its planned per-table
// strategies. Run-time degradations never move it: a Cross strategy
// degrades to its plain counterpart and an infeasible Bloom filter to
// No-Filter, neither of which changes which tables are exact or
// Post-Select.
func newShape(sch *schema.Schema, q *query.Query, strategies map[int]Strategy, bufSize int) *queryShape {
	sh := &queryShape{anchor: q.Anchor, exact: map[int]bool{}, postSelect: map[int]bool{}, specs: map[int]*projSpec{}}
	for ti, s := range strategies {
		switch s {
		case StratPost, StratCrossPost, StratNoFilter:
			sh.exact[ti] = true
		case StratPostSelect, StratCrossPostSelect:
			sh.postSelect[ti] = true
		}
	}
	projVis := projectedVisibleColsOf(sch, q)
	for _, ti := range q.Tables {
		sh.specs[ti] = &projSpec{table: ti, visCols: projVis[ti], presence: sh.exact[ti]}
	}
	for _, p := range q.Projections {
		switch s := sh.specs[p.Table]; {
		case p.ColIdx == query.IDCol:
			if p.Table != q.Anchor && !slices.Contains(sh.idTables, p.Table) {
				sh.idTables = append(sh.idTables, p.Table)
			}
		case sch.Tables[p.Table].Columns[p.ColIdx].Hidden && !slices.Contains(s.hidCols, p.ColIdx):
			s.hidCols = append(s.hidCols, p.ColIdx)
		}
	}
	for ti, s := range sh.specs {
		t := sch.Tables[ti]
		for _, c := range s.visCols {
			s.visW += t.Columns[c].EncodedWidth()
		}
		for _, c := range s.hidCols {
			s.hidW += t.Columns[c].EncodedWidth()
		}
		s.tupleW = 4 + s.visW + s.hidW
		s.off = rowLayout(t, s.visCols, s.hidCols)
		s.minBatch = (s.tupleW + bufSize - 1) / bufSize
		s.fixed = claimMin(s.mjoinClaims(0)) - s.minBatch
	}
	projTables := q.ProjTables()
	for ti, s := range sh.specs {
		if ti != q.Anchor && (s.presence || slices.Contains(projTables, ti)) {
			sh.proj = append(sh.proj, s)
		}
	}
	sort.Slice(sh.proj, func(i, j int) bool { return sh.proj[i].table < sh.proj[j].table })
	for _, s := range sh.proj {
		sh.needed = append(sh.needed, s.table)
		if s.visW+s.hidW > 0 || s.presence { // else the QEPSJ column is enough
			sh.mjoin = append(sh.mjoin, s)
		}
	}
	for ti := range sh.postSelect {
		if !slices.Contains(sh.needed, ti) {
			sh.needed = append(sh.needed, ti)
		}
	}
	slices.Sort(sh.needed)
	return sh
}

// rowLayout maps each column of cols to its byte offset in a row that
// holds a 4-byte id (or position) and then the columns' encoded values
// in order.
func rowLayout(t *schema.Table, cols ...[]int) map[int]int {
	off := map[int]int{}
	w := store.IDBytes
	for _, cs := range cols {
		for _, c := range cs {
			off[c] = w
			w += t.Columns[c].EncodedWidth()
		}
	}
	return off
}

// claimMin is the buffers a claim set needs at least.
func claimMin(claims []ram.Claim) int {
	n := 0
	for _, c := range claims {
		n += c.Min
	}
	return n
}

// mjoinClaims is the MJoin's buffer plan for the table: one buffer per
// reader and writer its shape opens, and a batch staging area of at
// least minBatch buffers, want when the grant allows.
func (s *projSpec) mjoinClaims(want int) []ram.Claim {
	claims := []ram.Claim{
		{Name: "sig", Min: 1, Want: 1}, // σVH run reader
		{Name: "col", Min: 1, Want: 1}, // QEPSJ column reader
		{Name: "out", Min: 1, Want: 1}, // batch output writer
		{Name: "batch", Min: s.minBatch, Want: max(want, s.minBatch)},
	}
	if s.visW > 0 {
		claims = append(claims, ram.Claim{Name: "spool", Min: 1, Want: 1})
	}
	if s.hidW > 0 {
		claims = append(claims, ram.Claim{Name: "hidden", Min: 1, Want: 1})
	}
	return claims
}

// finalClaims is the final join's fixed readers: the anchor column, the
// anchor's spool and hidden image when projected, and one reader per
// projected non-anchor id column.
func (sh *queryShape) finalClaims() []ram.Claim {
	a := sh.specs[sh.anchor]
	claims := []ram.Claim{{Name: "anchor", Min: 1, Want: 1}}
	if len(a.visCols) > 0 {
		claims = append(claims, ram.Claim{Name: "anchor-spool", Min: 1, Want: 1})
	}
	if len(a.hidCols) > 0 {
		claims = append(claims, ram.Claim{Name: "anchor-hidden", Min: 1, Want: 1})
	}
	if n := len(sh.idTables); n > 0 {
		claims = append(claims, ram.Claim{Name: "id-readers", Min: n, Want: n})
	}
	return claims
}

// bruteClaims is the Brute-Force projector's buffer plan: one buffer per
// open column reader, the anchor's and every projection table's.
func (sh *queryShape) bruteClaims() []ram.Claim {
	n := 1 + len(sh.proj)
	return []ram.Claim{{Name: "column-readers", Min: n, Want: n}}
}

// crossingPreds returns the hidden predicates that can take part in the
// Cross optimization at table tv (§3.3), with their positions in hidden:
// an attribute predicate on tv itself, or a predicate on a descendant
// whose climbing index carries tv's level. skip, when not nil, drops
// more predicates by position. The planner passes none, since the floor
// may depend on the query alone; a run skips the predicates a deeper
// table absorbed and those whose index an upsert overlay made stale.
func crossingPreds(sch *schema.Schema, tok *Token, hidden []query.Pred, tv int, skip func(i int) bool) ([]query.Pred, []int) {
	var preds []query.Pred
	var idx []int
	for i, p := range hidden {
		if skip != nil && skip(i) {
			continue
		}
		switch {
		case p.Table == tv:
			if p.ColIdx == query.IDCol {
				continue // id predicate on tv itself: cheap at anchor level
			}
		case !sch.IsAncestorOf(tv, p.Table):
			continue
		default:
			ci := tok.indexForPred(p)
			if ci == nil {
				continue
			}
			if _, ok := ci.LevelOf(tv); !ok {
				continue
			}
		}
		preds = append(preds, p)
		idx = append(idx, i)
	}
	return preds, idx
}
