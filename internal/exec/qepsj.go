package exec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"ghostdb/internal/bloom"
	"ghostdb/internal/bus"
	"ghostdb/internal/delta"
	"ghostdb/internal/index"
	"ghostdb/internal/metrics"
	"ghostdb/internal/query"
	"ghostdb/internal/ram"
	"ghostdb/internal/schema"
	"ghostdb/internal/sqlparse"
	"ghostdb/internal/store"
	"ghostdb/internal/untrusted"
)

// ErrBloomInfeasible is returned when a forced Post-Filter strategy cannot
// build a useful Bloom filter (the paper stops the Post-Filter curve at
// sV = 0.5 for exactly this reason).
var ErrBloomInfeasible = errors.New("exec: bloom filter would admit more false positives than it eliminates")

// Span names for the per-operator cost decomposition (Figures 15–16).
const (
	spanVis        = "Vis"
	spanCI         = "CI"
	spanMerge      = "Merge"
	spanSJoin      = "SJoin"
	spanBF         = "BF"
	spanStore      = "Store"
	spanProject    = "Project"
	spanPostSelect = "PostSelect"
	spanScan       = "Scan"
	spanDelta      = "Delta"
)

// visSpool is the flash-resident copy of one table's Vis result: rows of
// (id, projected visible values), in id order; the plan's projSpec holds
// the row layout.
type visSpool struct {
	file *store.RowFile
}

// queryRun is the per-query execution state. Everything a query needs
// that used to be mutable DB-level state is threaded here instead: the
// immutable QueryConfig snapshot, the bound plan, the session's private
// RAM budget and a per-query metrics collector, so concurrent sessions
// never read each other's knobs or counters.
//
// A queryRun only ever exists inside its session's Exclusive closure,
// so every method may touch the token's flash device and hidden images.
//
//ghostdb:requires-slot
type queryRun struct {
	db   *DB
	tok  *Token // the secure token this session runs on
	q    *query.Query
	cfg  QueryConfig
	plan *Plan              // the prepared plan driving this run
	ram  *ram.Manager       // session-private budget, sized at admission
	col  *metrics.Collector // per-query span collector (snapshots link speed)

	vis     map[int]*untrusted.VisResult
	visKeys map[int]string // canonical Vis key per table (spool retention)
	spool   map[int]*visSpool
	// retain maps table -> retention key for spools built this query;
	// after a successful run their files move from r.files to the
	// token's retained set. reused marks tables whose spool came from
	// that set (header-only shipment, file owned by the token).
	retain map[int]string
	reused map[int]bool
	// strategies starts as the plan's per-table choice and is mutated
	// only when an operator degrades (e.g. an infeasible Bloom filter
	// falling back to No-Filter).
	strategies map[int]Strategy
	// exact in-RAM selection after materialization (Post-Select).
	postSelect map[int][]uint32
	anchorPred []query.Pred // id predicates on the anchor (free filters)
	// logSets maps each table whose upsert log the Delta stage read to
	// the columns set since the last compaction, as the run saw them.
	logSets map[int][]int

	// QEPSJ output: resN tuples, one id run per table column.
	resN    int
	resCols map[int]sublist
	// spill is set when the store pipeline ran in shared-stage mode: the
	// survivor tuples sit row-major in one spilled segment awaiting the
	// distribution pass (distributeSpill).
	spill *storeSpill

	// pick and union are the reduction pass's scratch: the sublists it
	// unions and that union's host bookkeeping. Passes run one at a time
	// and each closes its union before the next opens, so one scratch
	// serves them all, and the other unions opened alone too: a column
	// sort's final union and the Post-Select column rebuilds.
	pick  runSet
	union unionScratch

	temps    []*tempList
	slab     []tempList // where newTemp carves the next temps from
	tempSegs []*tempTuples
	files    []*store.RowFile
}

// lendHook, when set, runs after every page buffer a query run borrows
// from its token's free list, with the buffer; tests use it to check
// that each lent page is covered by a claim of the stage that holds it,
// and to poison the page's stale bytes.
var lendHook func(r *queryRun, buf []byte)

// lend borrows a page-sized host buffer from the token's free list for a
// reader or writer of the running stage, which claims its RAM buffer.
func (r *queryRun) lend() []byte {
	buf := r.tok.pageBuf()
	if lendHook != nil {
		lendHook(r, buf)
	}
	return buf
}

// lentPage is the page buffer a temp segment assembles its pages in,
// borrowed from the token's free list until the segment is sealed.
//
//ghostdb:requires-slot
type lentPage struct {
	tok *Token
	buf []byte // nil once returned
}

func (p *lentPage) borrow(r *queryRun) []byte {
	p.tok, p.buf = r.tok, r.lend()
	return p.buf
}

func (p *lentPage) giveBack() {
	if p.buf != nil {
		p.tok.releasePageBuf(p.buf)
		p.buf = nil
	}
}

// tempList is a temp id-list segment of the run; Seal returns its page.
//
//ghostdb:requires-slot
type tempList struct {
	store.ListSegment
	lentPage
}

func (t *tempList) Seal() error {
	if err := t.ListSegment.Seal(); err != nil {
		return err
	}
	t.giveBack()
	return nil
}

// sealRun ends t's open run and seals t, returning the run.
func (t *tempList) sealRun() (sublist, error) {
	run, err := t.EndRun()
	if err != nil {
		return sublist{}, err
	}
	return sublist{seg: &t.Segment, run: run}, t.Seal()
}

// tempTuples is a temp tuple segment of the run; Seal returns its page.
//
//ghostdb:requires-slot
type tempTuples struct {
	store.Segment
	lentPage
}

func (t *tempTuples) Seal() error {
	if err := t.Segment.Seal(); err != nil {
		return err
	}
	t.giveBack()
	return nil
}

// newTemp opens a temp list segment. The run holds its temps by value in
// slabs that double in size, so a statement's temps cost a few
// allocations, not one per segment.
func (r *queryRun) newTemp() *tempList {
	if len(r.slab) == cap(r.slab) {
		r.slab = make([]tempList, 0, max(8, len(r.temps)))
	}
	r.slab = r.slab[:len(r.slab)+1]
	t := &r.slab[len(r.slab)-1]
	t.Init(r.tok.Dev, t.borrow(r))
	r.temps = append(r.temps, t)
	return t
}

// newTuples opens a temp tuple segment.
func (r *queryRun) newTuples() *tempTuples {
	t := &tempTuples{}
	t.Init(r.tok.Dev, t.borrow(r))
	r.tempSegs = append(r.tempSegs, t)
	return t
}

func (r *queryRun) cleanup() {
	for _, t := range r.temps {
		_ = t.Free()
		t.giveBack()
	}
	for _, s := range r.tempSegs {
		_ = s.Free()
		s.giveBack()
	}
	for _, f := range r.files {
		_ = f.Free()
	}
}

// execute runs the execute phase of a prepared plan: Vis, QEPSJ,
// projection (for a DML plan, the write stage instead). Strategies were
// chosen at plan time; this side only binds them to data.
func (r *queryRun) execute() (*Result, error) {
	defer r.cleanup()
	q := r.q

	if err := r.refreshDeltas(); err != nil {
		return nil, err
	}

	if r.plan.FastPath {
		return r.visibleOnlyRun()
	}

	// ---- Vis: visible selections and projected visible values. The
	// compute side is untrusted (free, page-cached); shipping happens in
	// spoolVis, which knows which tables can reuse a retained spool and
	// coalesces the remaining payloads into one batched round-trip.
	visPreds := q.VisiblePreds()
	r.vis = map[int]*untrusted.VisResult{}
	r.visKeys = map[int]string{}
	err := r.stage(spanVis, nil, func(*ram.Reservation) error {
		for _, ti := range q.Tables {
			preds, hasPreds := visPreds[ti]
			cols := r.plan.shape.specs[ti].visCols
			if !hasPreds && len(cols) == 0 {
				continue
			}
			vr, err := r.tok.Untr.ComputeVis(ti, preds, cols, r.plan.visCount(ti))
			if err != nil {
				return err
			}
			r.vis[ti] = vr
			r.visKeys[ti] = r.tok.Untr.VisKey(ti, preds, cols)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// ---- Per-query working set for the planned Post-Select passes.
	r.postSelect = map[int][]uint32{}

	// ---- Ship Vis results and spool the rows needed at projection time.
	if err := r.spoolVis(); err != nil {
		return nil, err
	}

	// ---- QEPSJ: selections, climbs, merge, semi-join, filters. A DML's
	// write stage consumes the Merge and ends the run.
	if err := r.qepsj(); err != nil {
		return nil, err
	}
	if r.plan.dml != nil {
		return &Result{
			Columns: []string{"affected"},
			Rows:    []schema.Row{{schema.IntVal(int64(r.resN))}},
		}, nil
	}
	if r.plan.shape.count {
		return countResult(r.resN), nil
	}

	// ---- QEPP: projection.
	res, err := r.project()
	if err != nil {
		return nil, err
	}
	r.retainSpools()
	return res, nil
}

// refreshDeltas replays, for every table the query names that carries
// delta state, the part of its overlay the plan reads (Plan.delta):
// the tombstone checkpoint and log, and the upsert log when readsLog,
// asked again against the columns set when the run starts, calls for
// it — the per-query read amplification of the LSM write path. Each
// replay is a sequential, data-independent scan of whole files (their
// lengths depend only on committed statement volume and compactions,
// which the untrusted side already observes), chosen by the statement
// text and the SET texts since the last compaction. The tables whose
// upsert log it reads, with their set columns, go to r.logSets: the
// run's operators consult only those overlays (overlay, columnOverlay).
// The Delta stage reads every file through the one page it claims,
// released before any other operator runs, so plan floors are
// unchanged.
func (r *queryRun) refreshDeltas() error {
	type refresh struct {
		dl     *delta.Table
		images bool
	}
	var touched []refresh
	for _, dr := range r.plan.delta {
		dl := r.tok.deltaOf(dr.table)
		if dl == nil {
			continue
		}
		set := r.tok.deltaSet(dr.table)
		images := dr.readsLog(set)
		if images {
			if r.logSets == nil {
				r.logSets = map[int][]int{}
			}
			r.logSets[dr.table] = set
		}
		if pages, _ := dl.ReadSize(images); pages > 0 {
			touched = append(touched, refresh{dl, images})
		}
	}
	if len(touched) == 0 {
		return nil
	}
	claims := []ram.Claim{{Name: "log-reader", Min: 1, Want: 1}}
	return r.stage(spanDelta, claims, func(*ram.Reservation) error {
		buf := r.lend()
		defer r.tok.releasePageBuf(buf)
		for _, t := range touched {
			if err := t.dl.Refresh(t.images, buf); err != nil {
				return err
			}
		}
		return nil
	})
}

// overlay returns the table's delta state when the run's Delta stage
// replayed its upsert log, nil otherwise: a reader of whole hidden rows
// substitutes overlay rows only then. When it is nil, the statement
// reads none of the columns an upsert changed, so the base row holds
// the bytes it reads.
func (r *queryRun) overlay(table int) *delta.Table {
	if _, ok := r.logSets[table]; !ok {
		return nil
	}
	return r.tok.deltaOf(table)
}

// columnOverlay is overlay for a reader of the one hidden column col: it
// consults the overlay only for a column some hidden SET has named since
// the last compaction.
func (r *queryRun) columnOverlay(table, col int) *delta.Table {
	if !slices.Contains(r.logSets[table], col) {
		return nil
	}
	return r.tok.deltaOf(table)
}

// visibleOnlyRun executes a single-table all-visible query (a FastPath
// plan) entirely on Untrusted: no hidden data is involved, so Secure
// only relays.
func (r *queryRun) visibleOnlyRun() (*Result, error) {
	q, db := r.q, r.db
	ti := q.Tables[0]
	t := db.Sch.Tables[ti]
	var preds []query.Pred
	preds = append(preds, q.Preds...)
	cols := projectedVisibleColsOf(db.Sch, q)[ti]
	var vr *untrusted.VisResult
	err := r.stage(spanVis, nil, func(*ram.Reservation) error {
		var err error
		vr, err = r.tok.Untr.Vis(ti, preds, cols)
		return err
	})
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for _, p := range q.Projections {
		res.Columns = append(res.Columns, db.columnLabel(p))
	}
	off := rowLayout(t, cols)
	dl := r.tok.deltaOf(ti)
	// len(vr.IDs) bounds the rows: tombstoned ones are dropped.
	rows := newRowArena(db.Sch, q, len(vr.IDs))
	for i, id := range vr.IDs {
		// Tombstone exclusion happens here, on the secure side: the
		// untrusted store still holds (and returned) the deleted rows.
		if dl != nil && dl.Dead(id) {
			continue
		}
		var raw []byte
		if len(cols) > 0 {
			raw = vr.Rows[i*vr.RowWidth : (i+1)*vr.RowWidth]
		}
		row := rows.next()
		for j, p := range q.Projections {
			if p.ColIdx == query.IDCol {
				row[j] = schema.IntVal(int64(id))
				continue
			}
			o, w := off[p.ColIdx], t.Columns[p.ColIdx].EncodedWidth()
			if err := rows.decode(&row[j], raw[o:o+w], t.Columns[p.ColIdx].Kind); err != nil {
				return nil, err
			}
		}
	}
	rows.finish(res)
	// Stats are attached once by runSelectOn after execute returns.
	return res, nil
}

// indexFor returns the climbing index evaluating a hidden predicate.
func (r *queryRun) indexFor(p query.Pred) *index.Climbing {
	return r.tok.indexForPred(p)
}

// spoolVis ships every Vis result down the link and writes the rows
// needed at projection time to flash. Two optimizations live here, both
// gated on the page cache being enabled:
//
//   - Spool reuse: when the token still retains the identical spool
//     (same canonical Vis key, same shape, no committed write since) only a
//     fixed VisHeaderBytes header crosses the link, and the token
//     replays its flash-resident copy — a sequential re-read at 25µs a
//     page instead of per-byte link time plus 200µs-a-page spool
//     writes. Reuse is a pure function of the public query history and
//     the committed writes, so it leaks nothing.
//
//   - Bus coalescing: all per-table shipments of the query merge into
//     one batched Down round-trip (bus.TransferBatch).
func (r *queryRun) spoolVis() error {
	r.spool = map[int]*visSpool{}
	r.retain = map[int]string{}
	r.reused = map[int]bool{}
	type pending struct {
		ti         int
		vr         *untrusted.VisResult
		needValues bool
	}
	var reqs []bus.Req
	var builds []pending
	var replays []*store.RowFile
	for _, ti := range r.q.Tables {
		vr := r.vis[ti]
		if vr == nil {
			continue
		}
		needValues := len(vr.ProjCols) > 0
		needIDs := r.plan.shape.exact[ti] || ti == r.q.Anchor && needValues
		if !needValues && !needIDs {
			// Streamed only: the ids feed the merge directly and no
			// flash copy exists to reuse, so the full run always ships.
			reqs = append(reqs, r.tok.Untr.ShipVisReq(vr))
			continue
		}
		key := fmt.Sprintf("%s|vals=%t", r.visKeys[ti], needValues)
		if r.db.pages != nil {
			if sp, ok := r.tok.retainedSpoolFor(key); ok {
				r.spool[ti] = &sp
				r.reused[ti] = true
				reqs = append(reqs, r.tok.Untr.ShipVisHeader(ti))
				replays = append(replays, sp.file)
				continue
			}
		}
		reqs = append(reqs, r.tok.Untr.ShipVisReq(vr))
		builds = append(builds, pending{ti, vr, needValues})
	}
	// A replay reads through one buffer of the session's grant, as
	// refreshDeltas does.
	var claims []ram.Claim
	if len(replays) > 0 {
		claims = []ram.Claim{{Name: "spool-replay", Min: 1, Want: 1}}
	}
	return r.stage(spanVis, claims, func(*ram.Reservation) error {
		if len(reqs) > 1 {
			if err := r.tok.Untr.ShipBatch(reqs); err != nil {
				return err
			}
		} else if len(reqs) == 1 {
			if err := r.tok.Untr.Ship(reqs[0]); err != nil {
				return err
			}
		}
		if err := r.replaySpools(replays); err != nil {
			return err
		}
		for _, b := range builds {
			vr := b.vr
			width := store.IDBytes
			if b.needValues {
				width = vr.RowWidth
			}
			f, err := store.NewRowFile(r.tok.Dev, width)
			if err != nil {
				return err
			}
			r.files = append(r.files, f)
			if b.needValues {
				for i := range vr.IDs {
					if err := f.Append(vr.Rows[i*vr.RowWidth : (i+1)*vr.RowWidth]); err != nil {
						return err
					}
				}
			} else {
				var idb [store.IDBytes]byte
				for _, id := range vr.IDs {
					binary.BigEndian.PutUint32(idb[:], id)
					if err := f.Append(idb[:]); err != nil {
						return err
					}
				}
			}
			if err := f.Seal(); err != nil {
				return err
			}
			r.spool[b.ti] = &visSpool{file: f}
			if r.db.pages != nil {
				r.retain[b.ti] = fmt.Sprintf("%s|vals=%t", r.visKeys[b.ti], b.needValues)
			}
		}
		return nil
	})
}

// replaySpools charges the token-side sequential re-read of each reused
// spool: with a header-only shipment the ids stream from the retained
// flash copy instead of the link.
func (r *queryRun) replaySpools(files []*store.RowFile) error {
	for _, f := range files {
		rd := f.NewSeqReader()
		for {
			_, _, ok, err := rd.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
		}
	}
	return nil
}

// retainSpools parks this query's freshly built spools on the token for
// later header-only reuse, moving ownership of their files out of
// r.files so cleanup leaves them resident. Runs only after a fully
// successful execution, with the slot still held.
//
//ghostdb:requires-slot
func (r *queryRun) retainSpools() {
	if len(r.retain) == 0 {
		return
	}
	for ti, key := range r.retain {
		sp := r.spool[ti]
		if sp == nil || sp.file == nil {
			continue
		}
		for i, f := range r.files {
			if f == sp.file {
				r.files = append(r.files[:i], r.files[i+1:]...)
				break
			}
		}
		r.tok.retainSpool(key, *sp)
	}
}

// mergeGroup is one conjunct of the anchor-level Merge: the union of its
// sorted sublists (flash runs and/or direct streams), or a Scan-routed
// anchor predicate's stream. The groups' unions are open side by side
// under the intersection, so each has its own scratch.
type mergeGroup struct {
	label   string
	runs    runSet
	streams []idStream
	scan    *scanStream
	union   unionScratch
}

// buffers is the stream buffers the group holds open in the Merge: one
// per flash sublist and the Scan stream's page.
func (g *mergeGroup) buffers() int {
	if g.scan != nil {
		return g.runs.len() + 1
	}
	return g.runs.len()
}

func (g *mergeGroup) addRun(seg *store.ListSegment, run store.Run) {
	if run.Count == 0 {
		return
	}
	g.runs.add(&seg.Segment, run)
}

// encodePredKey encodes a predicate literal for the index key space.
func encodePredKey(width int, v schema.Value) ([]byte, error) {
	k := make([]byte, width)
	if err := schema.EncodeValue(k, v); err != nil {
		return nil, err
	}
	return k, nil
}

// runsForHiddenPred evaluates one hidden predicate through an index at
// the given level slot, returning the matching sublists.
func (r *queryRun) runsForHiddenPred(p query.Pred, ci *index.Climbing, slot int) ([]store.Run, error) {
	if p.ColIdx == query.IDCol {
		// Identifier predicates use the id index key space directly.
		mk := func(i int64) []byte {
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], uint32(i))
			return b[:]
		}
		clamp := func(i int64) int64 {
			if i < 0 {
				return 0
			}
			if i > int64(^uint32(0)) {
				return int64(^uint32(0))
			}
			return i
		}
		switch p.Op {
		case sqlparse.OpEq:
			if p.Lo.I < 0 || p.Lo.I > int64(^uint32(0)) {
				return nil, nil
			}
			return ci.RunsEq(mk(p.Lo.I), slot)
		case sqlparse.OpNe:
			if p.Lo.I < 0 || p.Lo.I > int64(^uint32(0)) {
				return ci.RunsRange(nil, nil, true, true, slot)
			}
			a, err := ci.RunsRange(nil, mk(p.Lo.I), true, false, slot)
			if err != nil {
				return nil, err
			}
			b, err := ci.RunsRange(mk(p.Lo.I), nil, false, true, slot)
			if err != nil {
				return nil, err
			}
			return append(a, b...), nil
		case sqlparse.OpLt:
			return ci.RunsRange(nil, mk(clamp(p.Lo.I)), true, p.Lo.I > int64(^uint32(0)), slot)
		case sqlparse.OpLe:
			return ci.RunsRange(nil, mk(clamp(p.Lo.I)), true, p.Lo.I >= 0, slot)
		case sqlparse.OpGt:
			return ci.RunsRange(mk(clamp(p.Lo.I)), nil, p.Lo.I < 0, true, slot)
		case sqlparse.OpGe:
			return ci.RunsRange(mk(clamp(p.Lo.I)), nil, p.Lo.I <= int64(^uint32(0)), true, slot)
		case sqlparse.OpBetween:
			if p.Hi.I < 0 || p.Lo.I > int64(^uint32(0)) {
				return nil, nil
			}
			return ci.RunsRange(mk(clamp(p.Lo.I)), mk(clamp(p.Hi.I)), true, true, slot)
		}
		return nil, fmt.Errorf("exec: unsupported id predicate op %v", p.Op)
	}
	col := r.db.Sch.Tables[p.Table].Columns[p.ColIdx]
	w := col.EncodedWidth()
	lo, err := encodePredKey(w, p.Lo)
	if err != nil {
		return nil, err
	}
	switch p.Op {
	case sqlparse.OpEq:
		return ci.RunsEq(lo, slot)
	case sqlparse.OpNe:
		a, err := ci.RunsRange(nil, lo, true, false, slot)
		if err != nil {
			return nil, err
		}
		b, err := ci.RunsRange(lo, nil, false, true, slot)
		if err != nil {
			return nil, err
		}
		return append(a, b...), nil
	case sqlparse.OpLt:
		return ci.RunsRange(nil, lo, true, false, slot)
	case sqlparse.OpLe:
		return ci.RunsRange(nil, lo, true, true, slot)
	case sqlparse.OpGt:
		return ci.RunsRange(lo, nil, false, true, slot)
	case sqlparse.OpGe:
		return ci.RunsRange(lo, nil, true, true, slot)
	case sqlparse.OpBetween:
		hi, err := encodePredKey(w, p.Hi)
		if err != nil {
			return nil, err
		}
		return ci.RunsRange(lo, hi, true, true, slot)
	}
	return nil, fmt.Errorf("exec: unsupported predicate op %v", p.Op)
}

// bfFilter is a live Bloom filter over one table's (possibly crossed)
// visible id list, probed against QEPSJ tuples.
type bfFilter struct {
	table  int
	filter *bloom.Filter
	grant  interface{ Release() }
}
