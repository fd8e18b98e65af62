package exec

import (
	"fmt"
	"sort"

	"ghostdb/internal/bloom"
	"ghostdb/internal/index"
	"ghostdb/internal/query"
	"ghostdb/internal/ram"
	"ghostdb/internal/schema"
	"ghostdb/internal/sqlparse"
	"ghostdb/internal/store"
)

// qepsj evaluates the selection/join part of the query (§3.3): it builds
// one Merge group per conjunct at the anchor level, reduces sublists to
// fit the RAM budget, and feeds the Merge to its consumer: a SELECT's
// pipeline SJoin → ProbeBF → Store, or a DML's write stage.
func (r *queryRun) qepsj() error {
	q, db, sh := r.q, r.db, r.plan.shape
	anchor := q.Anchor

	var groups []*mergeGroup
	hidden := q.HiddenPreds()
	absorbed := make([]bool, len(hidden))

	// ---- Visible strategies (non-anchor tables).
	type bfPlanned struct {
		table int
		ids   []uint32
	}
	var bfPlans []bfPlanned
	// Deepest tables first, so cross absorption picks the tightest level.
	var visTables []int
	for tv := range r.strategies {
		visTables = append(visTables, tv)
	}
	sort.Slice(visTables, func(i, j int) bool {
		a, b := visTables[i], visTables[j]
		if db.Sch.Tables[a].Depth != db.Sch.Tables[b].Depth {
			return db.Sch.Tables[a].Depth > db.Sch.Tables[b].Depth
		}
		return a < b
	})
	for _, tv := range visTables {
		strat := r.strategies[tv]
		vr := r.vis[tv]
		crossPreds, crossIdx := crossingPreds(db.Sch, r.tok, hidden, tv, func(i int) bool {
			return absorbed[i] || r.staleIndex(hidden[i])
		})

		// Degrade cross strategies when every crossing predicate has
		// already been absorbed by a deeper table.
		if len(crossPreds) == 0 {
			strat = uncrossed(strat)
			r.strategies[tv] = strat
		}

		switch strat {
		case StratPre:
			g, err := r.preFilterGroup(tv, vr.IDs)
			if err != nil {
				return err
			}
			groups = append(groups, g)
		case StratCrossPre:
			l, err := r.crossedList(tv, crossPreds)
			if err != nil {
				return err
			}
			for _, i := range crossIdx {
				absorbed[i] = true // exact: no need to re-apply at anchor
			}
			g, err := r.preFilterGroup(tv, l)
			if err != nil {
				return err
			}
			groups = append(groups, g)
		case StratPost:
			bfPlans = append(bfPlans, bfPlanned{table: tv, ids: vr.IDs})
		case StratCrossPost:
			l, err := r.crossedList(tv, crossPreds)
			if err != nil {
				return err
			}
			bfPlans = append(bfPlans, bfPlanned{table: tv, ids: l})
		case StratPostSelect:
			r.postSelect[tv] = vr.IDs
		case StratCrossPostSelect:
			l, err := r.crossedList(tv, crossPreds)
			if err != nil {
				return err
			}
			r.postSelect[tv] = l
		case StratNoFilter:
			// postponed entirely to projection time
		default:
			return fmt.Errorf("exec: unexpected strategy %v", strat)
		}
	}

	// ---- Hidden predicates (not absorbed) at the anchor level, each by
	// its planned route (HiddenSel lists them in q.HiddenPreds order).
	for i, p := range hidden {
		if absorbed[i] {
			continue
		}
		if p.Table == anchor && p.ColIdx == query.IDCol {
			r.anchorPred = append(r.anchorPred, p)
			continue
		}
		g := &mergeGroup{label: fmt.Sprintf("hidden:%s", db.Sch.Tables[p.Table].Name)}
		ci := r.indexFor(p)
		if ci == nil || r.plan.HiddenSel[i].Route == RouteScan || r.staleIndex(p) {
			if err := r.scanFallback(g, p); err != nil {
				return err
			}
			groups = append(groups, g)
			continue
		}
		slot, ok := ci.LevelOf(anchor)
		if !ok {
			if err := r.scanFallback(g, p); err != nil {
				return err
			}
			groups = append(groups, g)
			continue
		}
		var runs []store.Run
		err := r.stage(spanCI, indexPage, func(*ram.Reservation) error {
			var err error
			runs, err = r.runsForHiddenPred(p, ci, slot)
			return err
		})
		if err != nil {
			return err
		}
		g.runs.grow(len(runs))
		for _, run := range runs {
			g.addRun(ci.Lists(), run)
		}
		groups = append(groups, g)
	}

	// ---- Anchor-table visible selection: its id list is already at the
	// anchor level, so it joins the Merge directly (always exact).
	if vr := r.vis[anchor]; vr != nil && len(q.VisiblePreds()[anchor]) > 0 {
		groups = append(groups, &mergeGroup{
			label:   "vis:anchor",
			streams: []idStream{newSliceStream(vr.IDs)},
		})
	}

	// ---- Reserve the store pipeline's buffers up front as named
	// sub-reservations, so the Bloom filters and the Merge reduction can
	// only spend what is genuinely left instead of racing the writers
	// for it.
	claims, direct := r.pipeline()
	// Joined non-anchor tables with live tombstones (consumed in-slot by
	// joinAndStore's chase; never reaches untrusted-observable output).
	var tombChecks []int
	for _, ti := range q.Tables {
		if ti == anchor {
			continue
		}
		if dl := r.tok.deltaOf(ti); dl != nil && dl.TombCount() > 0 {
			tombChecks = append(tombChecks, ti)
		}
	}
	pipe, err := r.ram.Plan(claims...)
	if err != nil {
		return fmt.Errorf("exec: QEPSJ pipeline: %w", err)
	}
	// Release is idempotent: the defer covers error paths, the explicit
	// release after joinAndStore returns the memory before Post-Select.
	defer pipe.Release()

	// ---- Build Bloom filters (they live in RAM through the pipeline).
	var bfs []*bfFilter
	releaseBFs := func() {
		for _, f := range bfs {
			if f.grant != nil {
				f.grant.Release()
				f.grant = nil
			}
		}
	}
	defer releaseBFs()
	for _, plan := range bfPlans {
		n := len(plan.ids)
		rows := r.tok.rows[plan.table]
		if rows > 0 && float64(n)/float64(rows) > 0.5 {
			if r.cfg.Strategy != StratAuto {
				return fmt.Errorf("%w: table %s selects %d of %d rows",
					ErrBloomInfeasible, db.Sch.Tables[plan.table].Name, n, rows)
			}
			r.strategies[plan.table] = StratNoFilter
			continue
		}
		budget := r.ram.Budget() / 2
		if len(bfPlans) > 1 {
			budget /= len(bfPlans)
		}
		// The filter must leave the Merge its planned footprint: one
		// stream buffer per planned sublist group, and at least the
		// 3-buffer reduction workspace.
		if free := r.ram.Available() - r.plan.Footprint.Merge*r.ram.BufferSize(); budget > free {
			budget = free
		}
		bp, err := bloom.PlanFor(n, budget)
		if err != nil {
			if r.cfg.Strategy != StratAuto {
				return fmt.Errorf("%w: %v", ErrBloomInfeasible, err)
			}
			r.strategies[plan.table] = StratNoFilter
			continue
		}
		grant, err := r.ram.Alloc(bp.Bytes)
		if err != nil {
			// The filter is an optimization: under RAM pressure fall back
			// to exact verification at projection time.
			if r.cfg.Strategy != StratAuto {
				return fmt.Errorf("%w: %v", ErrBloomInfeasible, err)
			}
			r.strategies[plan.table] = StratNoFilter
			continue
		}
		f := bloom.New(bp, n)
		err = r.stage(spanBF, nil, func(*ram.Reservation) error {
			for _, id := range plan.ids {
				f.Add(id)
			}
			return nil
		})
		if err != nil {
			grant.Release()
			return err
		}
		bfs = append(bfs, &bfFilter{table: plan.table, filter: f, grant: grant})
	}

	// ---- Reduce sublists to fit the Merge's stream buffers (what the
	// pipeline's claims and the filters leave of the grant, less a DML's
	// write-stage claims), then run the consumer inside the Merge stage
	// that opens the merged stream and holds its stream buffers, and a
	// DML's write-stage claims beside them.
	var write []ram.Claim
	if d := r.plan.dml; d != nil {
		write = writeClaims(d)
	}
	if err := r.reduceGroups(groups, claimMin(write)); err != nil {
		return err
	}
	err = r.stage(spanMerge, append(groupClaims(groups), write...), func(*ram.Reservation) error {
		merged, err := r.openMerged(groups)
		if err != nil {
			return err
		}
		// The anchor's id predicates narrow the free id sequence and
		// filter everything else: a flash-backed merged stream is never
		// cut short, since draining it is metered Merge I/O.
		idPreds := r.anchorPred
		if seq, ok := merged.(*seqStream); ok {
			idPreds = seq.clip(idPreds)
		}
		for _, p := range idPreds {
			merged = &filterStream{src: merged, keep: idPredFilter(p)}
		}
		// Anchor tombstones: deleted anchor rows are dropped from the
		// merged stream before the join (their index entries survive a
		// DELETE).
		merged = r.dropDeadAnchors(q.Anchor, merged)
		defer merged.close()
		if d := r.plan.dml; d != nil {
			return r.writeRows(d, merged)
		}
		return r.joinAndStore(merged, direct, sh.needed, tombChecks, bfs)
	})
	pipe.Release()
	if err != nil || r.plan.dml != nil {
		return err
	}
	// The filters are dead once the pipeline has stored its columns;
	// return their RAM before the distribution pass and the exact
	// Post-Select re-scans.
	releaseBFs()

	// ---- Shared-stage mode: distribute the spilled survivor tuples
	// into the per-column segments the projection operators expect.
	if r.spill != nil {
		if err := r.distributeSpill(); err != nil {
			return err
		}
	}

	// ---- Exact Post-Select passes, if any (Figure 11), deepest table
	// first: each pass shrinks the columns the next one re-scans, so map
	// order here would make the flash counters vary from run to run.
	for _, ti := range visTables {
		if ids, ok := r.postSelect[ti]; ok {
			if err := r.applyPostSelect(ti, ids); err != nil {
				return err
			}
		}
	}
	return nil
}

// pipeline is the QEPSJ pipeline's claims under the session's grant and
// whether they are direct column writers. With the grant the plan's
// direct footprint needs (Plan.storeDirect), one writer per stored
// column and the anchor's; under a tighter grant the column writers
// share one staged spill buffer instead, and the survivors are
// distributed into per-column segments by an extra pass after the
// pipeline releases. The SKT reader is the plan's data-independent
// claim: whether tombstones actually exist is hidden state, so neither
// the claim set nor any admission error may depend on it. A DML has no
// store pipeline: its Merge feeds the write stage, whose claims join the
// Merge stage's.
func (r *queryRun) pipeline() (claims []ram.Claim, direct bool) {
	if r.plan.dml != nil {
		return nil, true
	}
	fp := r.plan.Footprint
	direct = r.plan.storeDirect(r.ram.Buffers())
	claims = []ram.Claim{{Name: "store-writers", Min: fp.StoreWriters, Want: fp.StoreWriters}}
	if !direct {
		claims = []ram.Claim{{Name: "store-stage", Min: 1, Want: 1}}
	}
	if fp.SKTReader > 0 {
		claims = append(claims, ram.Claim{Name: "skt-reader", Min: 1, Want: 1})
	}
	return claims, direct
}

// indexPage is a CI stage's claim: the one index page its cursor or
// probe reads through.
var indexPage = []ram.Claim{{Name: "index-page", Min: 1, Want: 1}}

// idPredFilter compiles an anchor id predicate into a keep function,
// evaluated like every secure-side predicate (matchValue).
func idPredFilter(p query.Pred) func(uint32) bool {
	return func(id uint32) bool { return matchValue(p, schema.IntVal(int64(id))) }
}

// clip narrows the sequence to the ids the anchor id predicates preds
// admit (the free-filter semantics of idPredFilter) and returns those it
// cannot narrow to (<>), which stay filters.
func (s *seqStream) clip(preds []query.Pred) []query.Pred {
	lo, hi := int64(s.i), int64(s.n)-1
	// Over ids in [0, n-1], clamping a literal into [-1, n] keeps every
	// comparison's outcome and keeps the ±1 below from overflowing.
	lit := func(v schema.Value) int64 { return min(max(v.I, -1), int64(s.n)) }
	var rest []query.Pred
	for _, p := range preds {
		switch p.Op {
		case sqlparse.OpEq:
			lo, hi = max(lo, lit(p.Lo)), min(hi, lit(p.Lo))
		case sqlparse.OpLt:
			hi = min(hi, lit(p.Lo)-1)
		case sqlparse.OpLe:
			hi = min(hi, lit(p.Lo))
		case sqlparse.OpGt:
			lo = max(lo, lit(p.Lo)+1)
		case sqlparse.OpGe:
			lo = max(lo, lit(p.Lo))
		case sqlparse.OpBetween:
			lo, hi = max(lo, lit(p.Lo)), min(hi, lit(p.Hi))
		default:
			rest = append(rest, p)
		}
	}
	if lo > hi {
		lo, hi = 0, -1
	}
	s.i, s.n = uint32(lo), uint32(hi+1)
	return rest
}

// staleIndex reports whether an upsert overlay has made the climbing
// index of p's attribute stale (entries are never removed when a row's
// value changes), so p must go through the overlay-corrected scan at the
// anchor level. Id keys are exempt: ids never move.
func (r *queryRun) staleIndex(p query.Pred) bool {
	if p.ColIdx == query.IDCol {
		return false
	}
	dl := r.tok.deltaOf(p.Table)
	return dl != nil && dl.DirtyCount() > 0
}

// crossedList intersects a table's Visible id list with the same-level
// hidden selections (the Cross optimization, §3.3): the result is both
// smaller and exact at level tv.
func (r *queryRun) crossedList(tv int, preds []query.Pred) ([]uint32, error) {
	var groups []*mergeGroup
	for _, p := range preds {
		ci := r.indexFor(p)
		slot, _ := ci.LevelOf(tv)
		var runs []store.Run
		err := r.stage(spanCI, indexPage, func(*ram.Reservation) error {
			var err error
			runs, err = r.runsForHiddenPred(p, ci, slot)
			return err
		})
		if err != nil {
			return nil, err
		}
		g := &mergeGroup{label: "cross"}
		g.runs.grow(len(runs))
		for _, run := range runs {
			g.addRun(ci.Lists(), run)
		}
		groups = append(groups, g)
	}
	// The cross intersection runs before the QEPSJ pipeline is reserved,
	// so its reduction passes may use the whole grant.
	if err := r.reduceGroups(groups, 0); err != nil {
		return nil, err
	}
	var out []uint32
	err := r.stage(spanMerge, groupClaims(groups), func(*ram.Reservation) error {
		srcs := []idStream{newSliceStream(r.vis[tv].IDs)}
		for _, g := range groups {
			u, err := r.openGroup(g)
			if err != nil {
				for _, s := range srcs {
					s.close()
				}
				return err
			}
			srcs = append(srcs, u)
		}
		var err error
		out, err = drain(newIntersectStream(srcs))
		return err
	})
	return out, err
}

// preFilterGroup performs the Pre-Filter climb: one id-index lookup per
// visible id, collecting anchor-level sublists (§3.3: "as many lookups on
// the T1.id index as there are tuples resulting from the Visible
// selection").
func (r *queryRun) preFilterGroup(tv int, ids []uint32) (*mergeGroup, error) {
	g := &mergeGroup{label: "pre:" + r.db.Sch.Tables[tv].Name}
	ci, ok := r.tok.Cat.IDIndex(tv)
	if !ok {
		return nil, fmt.Errorf("exec: no id index on %s", r.db.Sch.Tables[tv].Name)
	}
	slot, ok := ci.LevelOf(r.q.Anchor)
	if !ok {
		return nil, fmt.Errorf("exec: id index on %s lacks level %s",
			r.db.Sch.Tables[tv].Name, r.db.Sch.Tables[r.q.Anchor].Name)
	}
	if err := r.climb(g, ci, slot, ids); err != nil {
		return nil, err
	}
	return g, nil
}

// climb adds to g the anchor-level sublists of every id, one id-index
// lookup each. A single probe, reading through a page buffer borrowed
// from the token's free list (the page its CI stage claims), serves all
// the lookups. An id has one sublist at a level (a few more once inserts
// appended their own), so g's set is sized up front for one per id plus
// the unions of the Merge's reduction passes, which run beside the
// pipeline's claims and keep one buffer for their writer.
func (r *queryRun) climb(g *mergeGroup, ci *index.Climbing, slot int, ids []uint32) error {
	pipe, _ := r.pipeline()
	fanIn := r.ram.Buffers() - claimMin(pipe) - 1
	g.runs.grow(len(ids) + len(ids)/max(fanIn-1, 1))
	return r.stage(spanCI, indexPage, func(*ram.Reservation) error {
		buf := r.lend()
		defer r.tok.releasePageBuf(buf)
		probe := ci.NewProbe(buf)
		for _, id := range ids {
			runs, err := probe.RunsForID(id, slot)
			if err != nil {
				return err
			}
			for _, run := range runs {
				g.addRun(ci.Lists(), run)
			}
		}
		return nil
	})
}

// dropDeadAnchors wraps the merged stream with the anchor's tombstone
// filter when the table has deletions: a DELETE leaves the row's index
// entries in place, so the dead ids must be screened out here, on the
// secure side, before the join ever sees them. Kept as its own function
// so the hidden delta state it touches stays away from the pipeline's
// error paths.
func (r *queryRun) dropDeadAnchors(anchor int, src idStream) idStream {
	dl := r.tok.deltaOf(anchor)
	if dl == nil || dl.TombCount() == 0 {
		return src
	}
	return &filterStream{src: src, keep: func(id uint32) bool { return !dl.Dead(id) }}
}

// scanFallback evaluates a hidden predicate by scanning the hidden image:
// the path taken when the plan priced the scan cheaper than the index
// (Plan.route), when the predicate's table carries live upserts (whose
// index entries are stale) or when no climbing index covers the column.
func (r *queryRun) scanFallback(g *mergeGroup, p query.Pred) error {
	db := r.db
	img := r.tok.Hidden[p.Table]
	if img == nil || p.ColIdx == query.IDCol {
		return fmt.Errorf("exec: no index and no hidden image for predicate on %s",
			db.Sch.Tables[p.Table].Name)
	}
	pos, ok := img.ColPos[p.ColIdx]
	if !ok {
		return fmt.Errorf("exec: column %d of %s is not hidden", p.ColIdx, db.Sch.Tables[p.Table].Name)
	}
	dl := r.tok.deltaOf(p.Table)
	// The Scan stage claims the image reader and the matches writer: it
	// writes the matching ids and, for a non-anchor table, reads them
	// back for the climb.
	claims := []ram.Claim{{Name: "image-reader", Min: 1, Want: 1}, {Name: "matches-writer", Min: 1, Want: 1}}
	var matches *tempList
	var sub sublist
	var ids []uint32
	err := r.stage(spanScan, claims, func(*ram.Reservation) error {
		matches = r.newTemp()
		if err := matches.BeginRun(); err != nil {
			return err
		}
		err := img.scan(dl, func(id uint32, rec []byte) error {
			if dl != nil && dl.Dead(id) {
				return nil
			}
			v, err := img.Codec.DecodeColumn(rec, pos)
			if err != nil || !matchValue(p, v) {
				return err
			}
			return matches.Add(id)
		})
		if err != nil {
			return err
		}
		if sub, err = matches.sealRun(); err != nil || p.Table == r.q.Anchor {
			return err
		}
		ids, err = matches.ReadAll(sub.run)
		return err
	})
	if err != nil {
		return err
	}
	if p.Table == r.q.Anchor {
		g.addRun(&matches.ListSegment, sub.run)
		return nil
	}
	// Climb per id through the id index (expensive, like Pre-Filter).
	ci, ok := r.tok.Cat.IDIndex(p.Table)
	if !ok {
		return fmt.Errorf("exec: no id index to climb from %s", db.Sch.Tables[p.Table].Name)
	}
	slot, ok := ci.LevelOf(r.q.Anchor)
	if !ok {
		return fmt.Errorf("exec: id index on %s lacks the anchor level", db.Sch.Tables[p.Table].Name)
	}
	return r.climb(g, ci, slot, ids)
}

// matchValue evaluates a predicate against a decoded value.
func matchValue(p query.Pred, v schema.Value) bool {
	cmp := v.Compare(p.Lo)
	switch p.Op {
	case sqlparse.OpEq:
		return cmp == 0
	case sqlparse.OpNe:
		return cmp != 0
	case sqlparse.OpLt:
		return cmp < 0
	case sqlparse.OpLe:
		return cmp <= 0
	case sqlparse.OpGt:
		return cmp > 0
	case sqlparse.OpGe:
		return cmp >= 0
	case sqlparse.OpBetween:
		return cmp >= 0 && v.Compare(p.Hi) <= 0
	}
	return false
}
