package exec

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"ghostdb/internal/index"
	"ghostdb/internal/query"
	"ghostdb/internal/sched"
	"ghostdb/internal/schema"
	"ghostdb/internal/sqlparse"
	"ghostdb/internal/store"
)

// This file is the plan phase of the executor: everything that can be
// decided *before* a query session is admitted. GhostDB's security model
// makes plan time the only safe place to commit to a memory footprint —
// once a session holds its grant, degrading mid-run would either fail the
// query (a blind fixed floor could die with ram.ErrExhausted) or leak
// timing back into admission. So, ObliDB-style,
// the planner selects every operator variant and derives the plan's true
// minimum RAM footprint up front from the claims its operators will
// make (shape.go); admission then requests exactly that floor. Within
// the grant the session actually received, each operator's stage takes
// its claims in one ram.Plan, which tops them up from what is free, so
// chunk and batch sizes need no derivation of their own; the only
// variant the grant picks is the store pipeline's (Plan.storeDirect).

// ErrBudgetTooSmall marks a plan whose derived minimum footprint exceeds
// the configured secure-RAM budget: the query is rejected cleanly at
// admission time, before anything has run. It wraps the scheduler's
// sentinel, which in turn wraps ram.ErrExhausted.
var ErrBudgetTooSmall = errors.New("exec: plan footprint exceeds the RAM budget")

// ErrOverloaded is the scheduler's load-shed sentinel re-exported at the
// engine boundary: a statement rejected at arrival because its token's
// predicted admission wait exceeded Options.MaxQueueWait. The statement
// held nothing and can simply be retried later; servers surface it as
// HTTP 429.
var ErrOverloaded = sched.ErrOverloaded

// TablePlan is the planned treatment of one table carrying a visible
// selection.
type TablePlan struct {
	Table    string
	TableIdx int
	// Strategy is the chosen visible/hidden combination strategy. For the
	// anchor table Direct is set instead: its id list joins the Merge
	// directly and needs no strategy.
	Strategy Strategy
	Direct   bool
	// VisCount / Rows / SV are the visible selection's cardinality,
	// the table cardinality and their ratio (the selectivity that drove
	// the strategy choice), counted on Untrusted at plan time.
	VisCount int
	Rows     int
	SV       float64
	// Cross reports whether the Cross optimization (§3.3) applies.
	Cross bool
}

// Footprint is the plan's RAM needs in whole buffers, broken down by
// pipeline phase. Phases run one after the other, so the plan's floor is
// the maximum phase footprint, not the sum.
type Footprint struct {
	// QEPSJ phase, direct mode: one writer per stored column + one anchor
	// writer, one SKT reader when descendant columns are stored, and the
	// Merge's stream/reduction buffers, all held simultaneously. A DML
	// plan's Merge feeds its write stage instead of the store pipeline:
	// StoreWriters counts that stage's claims (writeClaims), held beside
	// one stream per Merge group once the reduction has run, so its QEPSJ
	// is the larger of the two.
	StoreWriters int
	SKTReader    int
	Merge        int
	QEPSJ        int // StoreWriters + SKTReader + Merge (direct mode)
	// Shared-stage mode: under a tight grant the column writers collapse
	// into ONE staged spill buffer (survivor tuples written row-major),
	// and a post-pipeline distribution pass rewrites them column by
	// column. QEPSJShared = 1 + SKTReader + Merge is the pipeline's
	// shared-mode footprint. Distribute is 3 whenever columns are stored:
	// the distribution pass itself claims 2 (spill reader + one column
	// writer), but 3 is Post-Select's minimum (staging chunk + reader +
	// writer), which the shared-stage floor must also cover. The floor
	// uses these; a session granted the direct footprint runs direct
	// writers and skips the extra pass (Plan.storeDirect).
	QEPSJShared int
	Distribute  int
	// MJoin / FinalJoin are the projection phase peaks; Projection is
	// their maximum (or the brute-force reader plan when forced).
	MJoin      int
	FinalJoin  int
	Projection int
}

// Plan is the inspectable product of Prepare: per-table strategies, the
// projector, the derived admission floor and a coarse cost estimate. A
// Plan is immutable once built.
type Plan struct {
	SQL    string
	Anchor string
	// FastPath marks single-table all-visible queries, which execute
	// entirely on Untrusted and touch no secure RAM beyond the session
	// minimum of one buffer.
	FastPath  bool
	CountOnly bool
	Insert    bool // non-SELECT plan (INSERT admission sizing)
	DML       bool // UPDATE/DELETE plan: its WHERE as a query, feeding the write stage
	Tables    []TablePlan
	Projector Projector
	Footprint Footprint
	// MinBuffers is the derived admission floor: the smallest grant under
	// which every operator of this plan can run to completion (with more
	// passes, never with a mid-run ram.ErrExhausted). WantBuffers is the
	// elastic admission target the plan can profitably use.
	MinBuffers   int
	WantBuffers  int
	TotalBuffers int // the configured budget, for context
	BufferBytes  int
	// EstPageReads/EstPageWrites/EstCost form a coarse, plan-time cost
	// estimate (simulated time under the Table 1 model). It exists to
	// rank plans and feed EXPLAIN; measured Stats are the ground truth.
	EstPageReads  int
	EstPageWrites int
	EstCost       time.Duration
	// HiddenSel lists the per-hidden-predicate selectivity estimates the
	// cost model used, from the secure-side index statistics kept on the
	// token (never shipped; only this derived scalar appears here and in
	// EXPLAIN). Falls back to the paper's fixed 10% when no index covers
	// a predicate.
	HiddenSel []HiddenSelEst

	// Shard is the token ordinal this plan runs on (-1 for a cross-token
	// scatter plan). Parts holds the per-token sub-plans of a scatter
	// plan, in sub-query order; it is nil for single-token plans.
	Shard int
	Parts []*Plan

	// Execution-side bindings (not part of the public surface). shape is
	// nil for FastPath, scatter and INSERT plans; dml is the UPDATE or
	// DELETE a DML plan's Merge feeds; delta is the overlay read of each
	// table of a single-token SELECT or DML plan, FastPath included.
	tok        *Token
	strategies map[int]Strategy
	shape      *queryShape
	dml        *query.DML
	delta      []deltaRead
}

// deltaRead is the part of one table's delta overlay a statement reads
// before its operators run (refreshDeltas): liveness — the tombstone
// checkpoint and log — for every table it names, images — the upsert
// log too — for a table with a hidden attribute in a predicate or a
// projection, or the target of a hidden SET. The choice is a function of
// the statement text alone, never of the table's write history.
type deltaRead struct {
	table  int
	name   string
	images bool
}

// deltaReads plans the overlay read of each table of q (in FROM order),
// the WHERE query of the UPDATE or DELETE d when d is not nil.
func deltaReads(sch *schema.Schema, q *query.Query, d *query.DML) []deltaRead {
	attr := func(ti, col int) bool { return col != query.IDCol && sch.Tables[ti].Columns[col].Hidden }
	images := map[int]bool{}
	for _, p := range q.Preds {
		images[p.Table] = images[p.Table] || attr(p.Table, p.ColIdx)
	}
	for _, p := range q.Projections {
		images[p.Table] = images[p.Table] || attr(p.Table, p.ColIdx)
	}
	if d != nil && d.HiddenSets() {
		images[d.Table] = true
	}
	out := make([]deltaRead, len(q.Tables))
	for i, ti := range q.Tables {
		out[i] = deltaRead{table: ti, name: sch.Tables[ti].Name, images: images[ti]}
	}
	return out
}

// HiddenSelEst is one hidden predicate's estimated selectivity in the
// plan's cost model.
type HiddenSelEst struct {
	Table string
	Col   string
	// Sel is the estimated fraction of the table the predicate keeps.
	Sel float64
	// FromIndex reports whether the estimate came from the secure-side
	// index statistics (false = the fixed 10% fallback).
	FromIndex bool
	// Route is how the predicate's ids reach the Merge, the stage the run
	// opens for it: RouteIDFilter, RouteCI or RouteScan. An attribute
	// predicate on the anchor with a climbing index takes the cheaper of
	// CI and Scan, priced at ScanCost and CICost (zero when unpriced); a
	// CI route on a table with live upserts still scans at run time.
	Route            string
	ScanCost, CICost time.Duration
}

// Strategies returns a fresh copy of the planned per-table strategies,
// keyed by table index; the executor mutates its copy when operators
// degrade (e.g. an infeasible Bloom filter falling back to No-Filter).
func (p *Plan) Strategies() map[int]Strategy {
	out := make(map[int]Strategy, len(p.strategies))
	for ti, s := range p.strategies {
		out[ti] = s
	}
	return out
}

// visCount is the number of the table's rows its visible selection
// kept at plan time, all of them when it has none.
func (p *Plan) visCount(ti int) int {
	for _, tp := range p.Tables {
		if tp.TableIdx == ti {
			return tp.VisCount
		}
	}
	return p.tok.Rows(ti)
}

// storeDirect reports whether a session granted grant buffers runs the
// store pipeline with one writer per result column (no extra pass) or,
// when the grant cannot hold that writer set beside the Merge, with the
// shared staged spill buffer and the distribution pass (whose existence
// is what pushed the floor below the direct footprint). It is the one
// operator variant the grant picks; every other size comes from a
// stage's claims.
func (p *Plan) storeDirect(grant int) bool {
	return p.Footprint.Distribute == 0 || grant >= p.Footprint.QEPSJ
}

// visibleOnly reports whether a query touches no hidden data at all: a
// single-table query whose predicates and projections are all visible
// executes entirely on Untrusted (Secure only relays).
func visibleOnly(sch *schema.Schema, q *query.Query) bool {
	if len(q.Tables) != 1 {
		return false
	}
	t := sch.Tables[q.Tables[0]]
	for _, p := range q.Preds {
		if p.ColIdx == query.IDCol {
			continue
		}
		if t.Columns[p.ColIdx].Hidden {
			return false
		}
	}
	for _, p := range q.Projections {
		if p.ColIdx != query.IDCol && t.Columns[p.ColIdx].Hidden {
			return false
		}
	}
	return true
}

// projectedVisibleColsOf returns, per table, the visible column positions
// in the projection list (ascending, deduplicated).
func projectedVisibleColsOf(sch *schema.Schema, q *query.Query) map[int][]int {
	out := map[int][]int{}
	for _, p := range q.Projections {
		if p.ColIdx != query.IDCol && !sch.Tables[p.Table].Columns[p.ColIdx].Hidden {
			out[p.Table] = append(out[p.Table], p.ColIdx)
		}
	}
	for ti, cols := range out {
		slices.Sort(cols)
		out[ti] = slices.Compact(cols)
	}
	return out
}

// indexForPred returns the climbing index evaluating a hidden predicate
// (the token's: index structures live on the token owning the table).
// The catalog is read through the mu-guarded accessor because compaction
// swaps it and plan-time callers run outside the execution slot.
func (tok *Token) indexForPred(p query.Pred) *index.Climbing {
	cat := tok.catalog()
	if p.ColIdx == query.IDCol {
		ci, _ := cat.IDIndex(p.Table)
		return ci
	}
	ci, _ := cat.AttrIndex(p.Table, p.ColIdx)
	return ci
}

// PlanQuery builds the execution plan for a resolved query under a
// per-query configuration: it chooses per-table strategies from
// plan-time selectivity counts, derives the plan's true minimum RAM
// footprint (the admission floor) and estimates its cost. Nothing is
// admitted, metered or transferred; counts come from Untrusted's own
// data, which the query text already exposes.
func (db *DB) PlanQuery(q *query.Query, cfg QueryConfig) (*Plan, error) {
	return db.planQuery(q, cfg, nil)
}

// planQuery is PlanQuery for a SELECT (d nil) or for the WHERE clause of
// the UPDATE/DELETE d, as whereQuery renders it. A DML plan is never the
// visible-only fast path, its Merge feeds the write stage instead of the
// store pipeline and no projection follows, and it asks for exactly its
// floor: a write never competes for the spare RAM a SELECT's Bloom
// filters calibrate to. A hidden predicate whose index returns more
// sublists than the floor's Merge streams pays reduction passes for it.
func (db *DB) planQuery(q *query.Query, cfg QueryConfig, d *query.DML) (*Plan, error) {
	if !db.loaded {
		return nil, errors.New("exec: database not loaded")
	}
	if len(q.Parts) > 0 {
		return db.planScatter(q, cfg)
	}
	tok, err := db.tokenForTables(q.Tables)
	if err != nil {
		return nil, err
	}
	bufSize := tok.RAM.BufferSize()
	p := &Plan{
		SQL:          q.SQL,
		Anchor:       db.Sch.Tables[q.Anchor].Name,
		CountOnly:    q.CountOnly,
		Projector:    cfg.Projector,
		TotalBuffers: tok.RAM.Buffers(),
		BufferBytes:  bufSize,
		Shard:        tok.id,
		tok:          tok,
		strategies:   map[int]Strategy{},
		DML:          d != nil,
		dml:          d,
		delta:        deltaReads(db.Sch, q, d),
	}
	if d == nil && visibleOnly(db.Sch, q) {
		// Untrusted answers alone; the session needs only the nominal
		// one-buffer minimum and holds no RAM worth speaking of.
		p.FastPath = true
		p.MinBuffers = 1
		p.WantBuffers = 1
		p.estimate(db, q, mergeRoom{})
		return p, nil
	}
	p.WantBuffers = p.TotalBuffers // Bloom filters calibrate to spare RAM (§5)

	// ---- Per-table strategies from plan-time selectivity counts.
	fp := &p.Footprint
	hidden := q.HiddenPreds()
	visPreds := q.VisiblePreds()
	var visTables []int
	for ti := range visPreds {
		visTables = append(visTables, ti)
	}
	sort.Ints(visTables)
	for _, ti := range visTables {
		n, err := tok.Untr.CountVis(ti, visPreds[ti])
		if err != nil {
			return nil, err
		}
		rows := tok.Rows(ti)
		sV := 1.0
		if rows > 0 {
			sV = float64(n) / float64(rows)
		}
		tp := TablePlan{
			Table:    db.Sch.Tables[ti].Name,
			TableIdx: ti,
			VisCount: n,
			Rows:     rows,
			SV:       sV,
		}
		if ti == q.Anchor {
			tp.Direct = true // anchor id lists merge directly: always exact
			p.Tables = append(p.Tables, tp)
			continue
		}
		crossing, _ := crossingPreds(db.Sch, tok, hidden, ti, nil)
		cross := len(crossing) > 0
		s := cfg.Strategy
		if s == StratAuto {
			// The selectivity thresholds observed in §6.
			switch {
			case cross && sV <= 0.1:
				s = StratCrossPre
			case cross:
				s = StratCrossPost
			case sV <= 0.05:
				s = StratPre
			case sV <= 0.5:
				s = StratPost
			default:
				s = StratNoFilter
			}
		}
		// Forced cross strategies degrade gracefully when no same-level
		// hidden selection exists.
		if !cross {
			s = uncrossed(s)
		}
		tp.Strategy, tp.Cross = s, cross
		p.strategies[ti] = s
		p.Tables = append(p.Tables, tp)
	}
	// ---- The query shape: which tables need a QEPSJ column, are verified
	// exactly or get a Post-Select pass, and each table's projection
	// spec. The operators claim their buffers from this same shape, so
	// the floor below is the memory the run will actually claim.
	sh := newShape(db.Sch, q, p.strategies, bufSize)
	p.shape = sh

	// ---- QEPSJ phase footprint: writers + SKT reader + Merge.
	//
	// Merge run groups (upper bound — cross absorption only removes
	// groups): one per Pre/Cross-Pre table, one per hidden predicate that
	// is not a free anchor-id filter. Each group can be reduced to a
	// single sublist but never below it, so the Merge needs one stream
	// buffer per group and, when any reduction may be required, the
	// 3-buffer reduction workspace (2 streams + 1 spill writer).
	nGroups := 0
	for _, s := range p.strategies {
		if s == StratPre || s == StratCrossPre {
			nGroups++
		}
	}
	for _, hp := range hidden {
		if hp.Table == q.Anchor && hp.ColIdx == query.IDCol {
			continue // free filter on the ids flowing by
		}
		nGroups++
	}
	fp.StoreWriters = len(sh.needed) + 1
	// The SKT reader is reserved for every multi-table query, not only
	// when descendant columns are stored: the join may need it to check
	// non-anchor tombstones after a DELETE. The floor must stay a pure
	// function of the query shape — reserving it only when tombstones
	// exist would make admission data-dependent (a leak) and could
	// exhaust a floor-sized grant mid-run.
	if len(sh.needed) > 0 || len(q.Tables) > 1 {
		fp.SKTReader = 1
	}
	if nGroups > 0 {
		fp.Merge = max(nGroups, 3)
	}
	fp.QEPSJ = fp.StoreWriters + fp.SKTReader + fp.Merge
	if d != nil {
		// A DML has no store pipeline: its write stage's claims join the
		// Merge stage's, beside one stream per group, after a reduction
		// that leaves them room.
		fp.StoreWriters = claimMin(writeClaims(d))
		fp.QEPSJ = max(fp.Merge, nGroups+fp.StoreWriters)
	}
	// Shared-stage floor: with stored columns the writers can collapse
	// into one staged spill buffer, followed by the distribution pass (a
	// spill reader plus one column writer). Distribute is 3, not that
	// pass's 2: it is Post-Select's minimum (staging chunk + reader +
	// writer), which a floor at the shared-stage footprint must cover.
	fp.QEPSJShared = fp.QEPSJ
	if len(sh.needed) > 0 {
		fp.QEPSJShared = 1 + fp.SKTReader + fp.Merge
		fp.Distribute = 3
	}

	// ---- Projection phase: the claims of the operators that will run.
	switch {
	case d != nil:
		// A DML's write stage is its last operator.
	case cfg.Projector == ProjectBruteForce:
		fp.Projection = claimMin(sh.bruteClaims())
	default:
		for _, s := range sh.mjoin {
			fp.MJoin = max(fp.MJoin, claimMin(s.mjoinClaims(0)))
		}
		// Final join: its fixed readers plus one tuple cursor per joined
		// table (batch runs are consolidated first, a pass that needs the
		// 3-buffer reduction workspace).
		fp.FinalJoin = claimMin(sh.finalClaims()) + len(sh.mjoin)
		if len(sh.mjoin) > 0 {
			fp.FinalJoin = max(fp.FinalJoin, 3)
		}
		fp.Projection = max(fp.MJoin, fp.FinalJoin)
	}

	// The Cross phase and Post-Select need no term of their own. The
	// predicates crossing at a table are among the Merge's run groups, so
	// a Cross pass (one stream per crossing group, at least 3) fits in
	// Merge < QEPSJShared; a Post-Select table is stored, so Distribute
	// already covers its 3 buffers (staging chunk + reader + writer).
	p.MinBuffers = max(1, fp.QEPSJShared, fp.Distribute, fp.Projection)
	if d != nil {
		p.WantBuffers = p.MinBuffers
	}
	p.estimate(db, q, p.requestedRoom(db, cfg, nGroups))
	return p, nil
}

// planInsert sizes the admission request of an INSERT from its actual
// footprint: the encoded hidden record plus the SKT row it stages while
// maintaining the partitions and indexes (instead of the old hardcoded
// 1-buffer request, which under-declared wide hidden codecs).
func (db *DB) planInsert(ins sqlparse.Insert) (*Plan, error) {
	if !db.loaded {
		return nil, errors.New("exec: database not loaded")
	}
	t, ok := db.Sch.Lookup(ins.Table)
	if !ok {
		return nil, fmt.Errorf("exec: unknown table %q", ins.Table)
	}
	tok := db.TokenOf(t.Index)
	// The footprint was derived at load time: plan-time code must not
	// touch the hidden images (slotdiscipline — planning runs outside
	// the token's execution slot).
	bytes := tok.insertFootprint(t.Index)
	bufSize := tok.RAM.BufferSize()
	min := (bytes + bufSize - 1) / bufSize
	if min < 1 {
		min = 1
	}
	return &Plan{
		SQL:          ins.Table, // no SELECT text; table name for display
		Insert:       true,
		MinBuffers:   min,
		WantBuffers:  min,
		TotalBuffers: tok.RAM.Buffers(),
		BufferBytes:  bufSize,
		Shard:        tok.id,
		tok:          tok,
	}, nil
}

// estimate fills the plan's coarse cost model: expected flash traffic
// under the Table 1 parameters, page reads and writes and the bytes the
// reads move, summed into one flashIO and priced as the run is. It also
// decides each hidden predicate's route (route), pricing the anchor's
// attribute predicates in the room the requested grant leaves the
// Merge. The totals exist to rank plans in EXPLAIN output; measured
// Stats remain the ground truth. Hidden selectivities come from the
// per-index statistics each token keeps beside its climbing indexes
// (equi-depth key boundaries, maintained at build and insert time): the
// raw statistics never leave the token — the planner receives only the
// derived scalar per predicate, which EXPLAIN then shows. Predicates
// with no covering index fall back to the paper's fixed 10% sH. The
// planned Delta reads are priced from the token's declassified mirror of
// its logs' sizes.
func (p *Plan) estimate(db *DB, q *query.Query, room mergeRoom) {
	idsPerPage := float64(max(p.BufferBytes/store.IDBytes, 1))
	var io flashIO
	anchorRows := float64(db.Rows(q.Anchor))
	sel := 1.0
	for _, tp := range p.Tables {
		sel *= tp.SV
		switch tp.Strategy {
		case StratPre, StratCrossPre:
			io.add(p.idClimbIO(tp))
		}
	}
	for _, hp := range q.HiddenPreds() {
		sel *= p.hiddenSelOf(db, hp)
		io.add(p.route(db, q, hp, &p.HiddenSel[len(p.HiddenSel)-1], room))
	}
	est := anchorRows * sel
	cols := float64(p.Footprint.StoreWriters)
	if p.DML {
		cols = 0 // no Store or Project follows; the write stage is not priced
	}
	// SJoin reads one SKT row per surviving anchor id (random access);
	// Store writes the materialized columns; Project re-reads them.
	if p.Footprint.SKTReader > 0 {
		io.reads += est
		if skt, ok := p.tok.catalog().SKTOf(q.Anchor); ok {
			io.bytes += est * float64(store.IDBytes*len(skt.Descendants()))
		}
	}
	io.writes += est * cols / idsPerPage
	io.reads += 2 * est * cols / idsPerPage
	io.bytes += 2 * est * cols * store.IDBytes
	if p.FastPath {
		io = flashIO{} // Untrusted answers; the token reads only its overlay
	}
	for _, dr := range p.delta {
		io.add(p.tok.deltaReadIO(dr))
	}
	p.EstPageReads = int(io.reads)
	p.EstPageWrites = int(io.writes)
	p.EstCost = io.time(db)
}

// idClimbIO prices a table's Pre or Cross-Pre climb: its visible ids
// probe the table's id index in sorted order, each node read a whole
// page. The index geometry is read from the widths its tree was built
// with (fixed at load, so this needs no slot), at the ~90% fill a bulk
// load leaves in every node.
func (p *Plan) idClimbIO(tp TablePlan) flashIO {
	ci, ok := p.tok.catalog().IDIndex(tp.TableIdx)
	if !ok {
		return flashIO{}
	}
	tr := ci.Tree()
	usable := p.BufferBytes * 9 / 10
	leafCap := max(usable/(tr.KeyWidth()+tr.PayloadWidth()), 1)
	fanout := max(usable/(tr.KeyWidth()+4), 2) // key + child page id
	reads := idProbeReads(tp.VisCount, tp.Rows, leafCap, fanout)
	return flashIO{reads: reads, bytes: reads * float64(p.BufferBytes)}
}

// idProbeReads is the expected page reads of n sorted id probes into an
// id index over rows dense ids, leafCap entries to a leaf and fanout
// children to an inner node. A probe descends only when its id leaves
// the leaf the cursor holds, so the probes pay one descent (the tree's
// height) per distinct leaf they touch: L·(1 − (1 − 1/L)ⁿ) of the L
// leaves for ids spread uniformly. Every input is public: the visible
// count, the table's cardinality and the index geometry.
func idProbeReads(n, rows, leafCap, fanout int) float64 {
	if n <= 0 || rows <= 0 {
		return 0
	}
	leaves, height := treeShape(rows, leafCap, fanout)
	l := float64(leaves)
	return l * (1 - math.Pow(1-1/l, float64(n))) * float64(height)
}

// treeShape is the leaf count and height of a tree over entries keys,
// leafCap to a leaf and fanout children to an inner node.
func treeShape(entries, leafCap, fanout int) (leaves, height int) {
	leaves = max((entries+leafCap-1)/leafCap, 1)
	height = 1
	for nodes := leaves; nodes > 1; nodes = (nodes + fanout - 1) / fanout {
		height++
	}
	return leaves, height
}

// hiddenSelOf estimates one hidden predicate's selectivity for the cost
// model and records the estimate (and its provenance) on the plan. Id
// predicates are computed exactly — identifiers are dense 0..rows-1, so
// the literal fixes the fraction; attribute predicates consult the
// token-side index statistics; anything uncovered falls back to the
// paper's fixed 10%.
func (p *Plan) hiddenSelOf(db *DB, hp query.Pred) float64 {
	const fallback = 0.1
	t := db.Sch.Tables[hp.Table]
	est := HiddenSelEst{Table: t.Name, Sel: fallback}
	if hp.ColIdx == query.IDCol {
		est.Col = "id"
		if rows := db.Rows(hp.Table); rows > 0 {
			est.Sel, est.FromIndex = idPredSel(hp, rows), true
		}
	} else {
		est.Col = t.Columns[hp.ColIdx].Name
		if sel, ok := attrPredSel(p.tok, hp, t.Columns[hp.ColIdx]); ok {
			est.Sel, est.FromIndex = sel, true
		}
	}
	if est.Sel < 0 {
		est.Sel = 0
	}
	if est.Sel > 1 {
		est.Sel = 1
	}
	p.HiddenSel = append(p.HiddenSel, est)
	return est.Sel
}

// idPredSel computes an id predicate's exact selectivity over the dense
// identifier space 0..rows-1.
func idPredSel(hp query.Pred, rows int) float64 {
	n := float64(rows)
	clamp := func(v int64) float64 {
		if v < 0 {
			return 0
		}
		if v > int64(rows) {
			return n
		}
		return float64(v)
	}
	switch hp.Op {
	case sqlparse.OpLt:
		return clamp(hp.Lo.I) / n
	case sqlparse.OpLe:
		return clamp(hp.Lo.I+1) / n
	case sqlparse.OpGt:
		return (n - clamp(hp.Lo.I+1)) / n
	case sqlparse.OpGe:
		return (n - clamp(hp.Lo.I)) / n
	case sqlparse.OpEq:
		if hp.Lo.I >= 0 && hp.Lo.I < int64(rows) {
			return 1 / n
		}
		return 0
	case sqlparse.OpNe:
		if hp.Lo.I >= 0 && hp.Lo.I < int64(rows) {
			return (n - 1) / n
		}
		return 1
	case sqlparse.OpBetween:
		lo, hi := clamp(hp.Lo.I), clamp(hp.Hi.I+1)
		if hi < lo {
			return 0
		}
		return (hi - lo) / n
	}
	return 0.1
}

// attrPredSel estimates an attribute predicate from the statistics the
// token keeps beside the attribute's climbing index.
func attrPredSel(tok *Token, hp query.Pred, col schema.Column) (float64, bool) {
	ci, ok := tok.catalog().AttrIndex(hp.Table, hp.ColIdx)
	if !ok {
		return 0, false
	}
	w := col.EncodedWidth()
	lo, err := encodePredKey(w, hp.Lo)
	if err != nil {
		return 0, false
	}
	below, ok := ci.EstimateFracBelow(lo)
	if !ok {
		return 0, false
	}
	eq, _ := ci.EstimateFracEq()
	switch hp.Op {
	case sqlparse.OpLt:
		return below, true
	case sqlparse.OpLe:
		return below + eq, true
	case sqlparse.OpGt:
		return 1 - below - eq, true
	case sqlparse.OpGe:
		return 1 - below, true
	case sqlparse.OpEq:
		return eq, true
	case sqlparse.OpNe:
		return 1 - eq, true
	case sqlparse.OpBetween:
		hi, err := encodePredKey(w, hp.Hi)
		if err != nil {
			return 0, false
		}
		belowHi, ok := ci.EstimateFracBelow(hi)
		if !ok {
			return 0, false
		}
		return belowHi + eq - below, true
	}
	return 0, false
}

// Explain renders the plan for humans: per-table strategies, each hidden
// predicate's estimate and planned route (the anchor's id predicates
// filter the ids flowing by; an attribute predicate on the anchor takes
// the cheaper of CI and Scan, both prices shown; any other indexed
// predicate climbs through the CI stage; a CI route on a table with live
// upserts scans at run time), the footprint derivation, the admission
// request and the cost estimate. A DML plan renders as the query of its
// WHERE clause, whose Merge feeds the write stage.
func (p *Plan) Explain() string {
	var b strings.Builder
	if p.Insert {
		fmt.Fprintf(&b, "plan: INSERT INTO %s\n", p.SQL)
		fmt.Fprintf(&b, "  admission: min %d of %d buffers (%d B each) — hidden record + SKT row staging\n",
			p.MinBuffers, p.TotalBuffers, p.BufferBytes)
		return b.String()
	}
	fmt.Fprintf(&b, "plan: %s\n", p.SQL)
	if len(p.Parts) > 0 {
		fmt.Fprintf(&b, "  scatter: %d per-token sub-plans, cross-product merge on the untrusted side\n",
			len(p.Parts))
		for i, sub := range p.Parts {
			fmt.Fprintf(&b, "  -- part %d (token %d) --\n", i, sub.Shard)
			for _, line := range strings.Split(strings.TrimRight(sub.Explain(), "\n"), "\n") {
				fmt.Fprintf(&b, "  %s\n", line)
			}
		}
		fmt.Fprintf(&b, "  estimated cost: ~%v simulated I/O on the critical path (tokens run in parallel)\n",
			p.EstCost.Round(10*time.Microsecond))
		return b.String()
	}
	fmt.Fprintf(&b, "  token: %d\n", p.Shard)
	fmt.Fprintf(&b, "  anchor: %s", p.Anchor)
	if p.FastPath {
		b.WriteString("  (visible-only fast path: Untrusted answers, Secure relays)\n")
	} else {
		b.WriteString("\n")
	}
	if len(p.Tables) > 0 {
		b.WriteString("  visible selections:\n")
		for _, tp := range p.Tables {
			if tp.Direct {
				fmt.Fprintf(&b, "    %-12s direct anchor merge  sV=%.3f (%d of %d rows)\n",
					tp.Table, tp.SV, tp.VisCount, tp.Rows)
				continue
			}
			cross := ""
			if tp.Cross {
				cross = "  [cross available]"
			}
			fmt.Fprintf(&b, "    %-12s %-18v sV=%.3f (%d of %d rows)%s\n",
				tp.Table, tp.Strategy, tp.SV, tp.VisCount, tp.Rows, cross)
		}
	}
	if len(p.HiddenSel) > 0 {
		b.WriteString("  hidden selectivity estimates (token-side index stats; raw stats never leave the token):\n")
		for _, h := range p.HiddenSel {
			src := "index stats"
			if !h.FromIndex {
				src = "fixed 10% fallback"
			}
			route := h.Route
			if route != RouteIDFilter {
				route = "via " + route
			}
			if h.CICost > 0 {
				route += fmt.Sprintf(" (priced: Scan ~%v, CI ~%v)",
					h.ScanCost.Round(time.Microsecond), h.CICost.Round(time.Microsecond))
			}
			fmt.Fprintf(&b, "    %s.%-10s ~%.3f  [%s]  %s\n", h.Table, h.Col, h.Sel, src, route)
		}
	}
	if len(p.delta) > 0 {
		reads := make([]string, len(p.delta))
		for i, dr := range p.delta {
			reads[i] = dr.name + " liveness"
			if dr.images {
				reads[i] = dr.name + " images"
			}
		}
		fmt.Fprintf(&b, "  delta: %s\n", strings.Join(reads, " · "))
	}
	if fp := p.Footprint; p.DML {
		fmt.Fprintf(&b, "  footprint (buffers): QEPSJ %d (merge %d, then write stage %d + a stream per merge group)\n",
			fp.QEPSJ, fp.Merge, fp.StoreWriters)
	} else if !p.FastPath {
		fmt.Fprintf(&b, "  projector: %v\n", p.Projector)
		fmt.Fprintf(&b, "  footprint (buffers): QEPSJ %d (%d writers + %d SKT + %d merge)",
			fp.QEPSJ, fp.StoreWriters, fp.SKTReader, fp.Merge)
		if fp.Distribute > 0 && fp.QEPSJShared < fp.QEPSJ {
			fmt.Fprintf(&b, " [shared-stage floor %d + distribute %d]", fp.QEPSJShared, fp.Distribute)
		}
		fmt.Fprintf(&b, " · projection %d", fp.Projection)
		if fp.MJoin > 0 || fp.FinalJoin > 0 {
			fmt.Fprintf(&b, " (mjoin %d, final join %d)", fp.MJoin, fp.FinalJoin)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "  admission: min %d of %d buffers (%d B each), want %d\n",
		p.MinBuffers, p.TotalBuffers, p.BufferBytes, p.WantBuffers)
	if p.MinBuffers > p.TotalBuffers {
		b.WriteString("  !! floor exceeds the configured budget: the query will be rejected at admission\n")
	}
	fmt.Fprintf(&b, "  estimated cost: ~%v simulated I/O (≈%d page reads, %d writes)\n",
		p.EstCost.Round(10*time.Microsecond), p.EstPageReads, p.EstPageWrites)
	return b.String()
}
