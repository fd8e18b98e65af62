package exec

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ghostdb/internal/delta"
	"ghostdb/internal/index"
	"ghostdb/internal/metrics"
	"ghostdb/internal/obs"
	"ghostdb/internal/query"
	"ghostdb/internal/sched"
	"ghostdb/internal/schema"
	"ghostdb/internal/store"
)

// This file is the DML write path: UPDATE and DELETE run as minimal
// sessions on the token owning the target table, stage their secure-side
// effects in the table's delta log (internal/delta) and, when the log
// grows past the threshold, hand the accumulated deltas to a background
// compaction that rebuilds the token's base images and indexes.
//
// The division of labor mirrors the read path's trust boundary:
//
//   - DELETE never touches the untrusted store. Deleted rows become
//     tombstones on the token; the visible partition keeps the stale
//     rows (ids are positional and never reclaimed), and every read
//     excludes tombstoned ids on the secure side.
//   - UPDATE of hidden columns stages whole-row upserts in the delta
//     log; the untrusted side sees only the statement text and the
//     page-aligned log append volume.
//   - UPDATE of visible columns is applied in place by the untrusted
//     engine — legal only because the resolver guarantees the matched
//     set derives from public data (visible or id predicates).

// compactFloor is the RAM floor of a compaction session: one buffer for
// the sequential base-image/SKT reads, one for the row being folded, one
// for the rebuild append path. Like every admission floor it is a
// constant — never a function of hidden state.
const compactFloor = 3

// planDML sizes the admission request of an UPDATE/DELETE. The floor is
// derived from the statement's public shape only: a statement with
// secure-side work (a delete, a hidden SET or a hidden predicate scan)
// needs the scan + staging + delta-append buffers; a visible-only UPDATE
// runs entirely in the untrusted store and needs a single buffer.
func (db *DB) planDML(d *query.DML) (*Plan, error) {
	if !db.loaded {
		return nil, errors.New("exec: database not loaded")
	}
	tok := db.TokenOf(d.Table)
	min := 1
	if d.Delete || d.HiddenSets() || d.HiddenAttrPreds() {
		min = 3
	}
	return &Plan{
		SQL:          d.Canonical(),
		DML:          true,
		MinBuffers:   min,
		WantBuffers:  min,
		TotalBuffers: tok.RAM.Buffers(),
		BufferBytes:  tok.RAM.BufferSize(),
		Shard:        tok.id,
		tok:          tok,
	}, nil
}

// spanDML / spanCompact name the cost spans covering the write path's
// secure-side work, mirroring the read path's per-operator spans.
const (
	spanDML     = "DML"
	spanCompact = "Compact"
)

// runDML executes an UPDATE/DELETE as a metered session on the token
// owning the target table: FIFO admission sized from the plan floor, then
// exclusive use of the token while the statement stages and commits. The
// result carries the affected-row count plus the statement's Stats, and
// the session gets the same trace spans, token totals, slow-log entry
// (kind-tagged UPDATE/DELETE) and pacing a SELECT gets.
func (db *DB) runDML(ctx context.Context, d *query.DML, plan *Plan, cfg QueryConfig) (*Result, error) {
	s, err := db.admit(ctx, plan.tok, sched.Request{
		MinBuffers: plan.MinBuffers, WantBuffers: plan.WantBuffers}, cfg.traceParent())
	if err != nil {
		return nil, err
	}
	defer s.end()
	var affected int
	var st Stats
	err = s.sess.Exclusive(ctx, func() error {
		g, err := s.sess.RAM().AllocBuffers(plan.MinBuffers)
		if err != nil {
			return err
		}
		defer g.Release()
		st, err = s.meter(plan.SQL, func(col *metrics.Collector) error {
			return col.Span(spanDML, func() error {
				n, err := db.dmlOn(plan.tok, d)
				affected = n
				return err
			})
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	db.maybeCompact(plan.tok)
	return &Result{
		Columns: []string{"affected"},
		Rows:    []schema.Row{{schema.IntVal(int64(affected))}},
		Stats:   st,
	}, nil
}

// dmlOn stages and commits one UPDATE/DELETE against its token. The
// matched set is the intersection of three independently-derived id
// sets — the untrusted engine's visible selection (metered over the
// bus), an overlay-corrected sequential scan of the hidden image for
// hidden attribute predicates, and pure id arithmetic — minus the
// tombstoned ids.
//
//ghostdb:requires-slot
func (db *DB) dmlOn(tok *Token, d *query.DML) (int, error) {
	t := db.Sch.Tables[d.Table]
	rows := tok.rows[d.Table]

	// DELETEs and hidden SETs stage secure-side work; a visible-only
	// UPDATE must not touch the token's flash (it would charge secure
	// write cost for untrusted-side work).
	secure := d.Delete || d.HiddenSets()
	var dl *delta.Table
	var err error
	if secure {
		dl, err = tok.deltaFor(d.Table)
		if err != nil {
			return 0, err
		}
	} else {
		dl = tok.deltaOf(d.Table)
	}
	// Rebuild the merge view by replaying the existing log — the read
	// amplification every delta-touching statement pays (a sequential,
	// data-independent scan charged to this session).
	if dl != nil && dl.Depth() > 0 {
		if err := dl.Refresh(); err != nil {
			return 0, err
		}
	}

	var visPreds, hidPreds []query.Pred
	var idFilters []func(uint32) bool
	for _, p := range d.Preds {
		switch {
		case p.ColIdx == query.IDCol:
			idFilters = append(idFilters, idPredFilter(p))
		case p.Hidden:
			hidPreds = append(hidPreds, p)
		default:
			visPreds = append(visPreds, p)
		}
	}

	var visSet map[uint32]bool
	if len(visPreds) > 0 {
		vr, err := tok.Untr.Vis(d.Table, visPreds, nil)
		if err != nil {
			return 0, err
		}
		visSet = make(map[uint32]bool, len(vr.IDs))
		for _, id := range vr.IDs {
			visSet[id] = true
		}
	}

	img := tok.Hidden[d.Table]
	var hidSet map[uint32]bool
	if len(hidPreds) > 0 {
		if img == nil {
			return 0, fmt.Errorf("exec: hidden predicate on %s without a hidden image", t.Name)
		}
		// Full overlay-corrected scan: climbing indexes are not usable
		// here — their entries go stale the moment an upsert changes a
		// key, and the scan's cost is data-independent anyway.
		hidSet = make(map[uint32]bool)
		err := img.scan(dl, func(id uint32, rec []byte) error {
			for _, p := range hidPreds {
				v, err := img.Codec.DecodeColumn(rec, img.ColPos[p.ColIdx])
				if err != nil || !matchValue(p, v) {
					return err
				}
			}
			hidSet[id] = true
			return nil
		})
		if err != nil {
			return 0, err
		}
	}

	var matched []uint32
	for id := uint32(0); int(id) < rows; id++ {
		if dl != nil && dl.Dead(id) {
			continue
		}
		if visSet != nil && !visSet[id] {
			continue
		}
		if hidSet != nil && !hidSet[id] {
			continue
		}
		keep := true
		for _, f := range idFilters {
			if !f(id) {
				keep = false
				break
			}
		}
		if keep {
			matched = append(matched, id)
		}
	}

	if d.Delete {
		for _, id := range matched {
			if err := dl.StageTombstone(id); err != nil {
				return 0, err
			}
		}
	} else {
		if d.HiddenSets() {
			if img == nil {
				return 0, fmt.Errorf("exec: hidden SET on %s without a hidden image", t.Name)
			}
			srd := img.File.NewSortedReader()
			rec := make([]byte, img.Codec.Width())
			for _, id := range matched { // ascending, as SortedReader requires
				if ov, ok := dl.Lookup(id); ok {
					copy(rec, ov)
				} else if err := srd.Read(id, rec); err != nil {
					return 0, err
				}
				for _, s := range d.Sets {
					if !s.Hidden {
						continue
					}
					o, w := img.Codec.ColumnRange(img.ColPos[s.ColIdx])
					if err := schema.EncodeValue(rec[o:o+w], s.Val); err != nil {
						return 0, err
					}
				}
				if err := dl.StageUpsert(id, rec); err != nil {
					return 0, err
				}
			}
		}
		// Visible SETs go to the untrusted store in place. The resolver
		// guarantees the matched set derives from visible or id
		// predicates only, so handing it over reveals nothing the spy
		// could not compute from the statement text; no bus transfer is
		// charged for the same reason.
		for _, s := range d.Sets {
			if s.Hidden {
				continue
			}
			if err := tok.Untr.UpdateRows(d.Table, s.ColIdx, matched, s.Val); err != nil {
				return 0, err
			}
		}
	}
	if secure {
		// Page-aligned commit: the statement's flash write volume is a
		// whole number of pages, at least one, even when nothing matched.
		if err := dl.Commit(); err != nil {
			return 0, err
		}
	}

	tok.mu.Lock()
	tok.dmlCount++
	tok.mu.Unlock()
	tok.syncDeltaMirror()
	db.committed(tok)
	return len(matched), nil
}

// maybeCompact starts a background compaction of the token when its
// delta depth has crossed the threshold and none is already running. The
// compaction acquires a *normal* scheduled session: on the bus and in
// the admission queue it is indistinguishable from query work.
func (db *DB) maybeCompact(tok *Token) {
	if db.opts.CompactThreshold < 0 {
		return
	}
	tok.mu.Lock()
	trigger := !tok.compacting && tok.deltaPages >= db.opts.CompactThreshold
	if trigger {
		tok.compacting = true
	}
	tok.mu.Unlock()
	if !trigger {
		return
	}
	go func() {
		defer func() {
			tok.mu.Lock()
			tok.compacting = false
			tok.mu.Unlock()
		}()
		if _, err := db.compactOn(context.Background(), tok, nil); err != nil {
			db.inst.compactErrs.Inc()
		}
	}()
}

// WaitCompactions blocks until no token has a background compaction in
// flight (or ctx expires). A compaction triggered by a just-returned
// statement is already marked running when that statement's result is
// delivered, so a caller that quiesces its own statements first cannot
// race the trigger. Benches use this to read settled delta counters;
// it does not prevent new DML from triggering further compactions.
func (db *DB) WaitCompactions(ctx context.Context) error {
	for {
		busy := false
		for _, tok := range db.tokens {
			tok.mu.Lock()
			if tok.compacting {
				busy = true
			}
			tok.mu.Unlock()
		}
		if !busy {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// DeltaStats is one token's declassified write-path counters: the delta
// log depth in flash pages, the DML statements committed, and the
// compactions completed. All three are mirrors maintained at commit and
// compaction time — reading them never touches hidden state.
type DeltaStats struct {
	// Pages is the current delta-log depth across the token's tables.
	Pages int
	// DMLStatements counts committed UPDATE/DELETE statements.
	DMLStatements uint64
	// Compactions counts completed delta compactions.
	Compactions uint64
}

// TokenDeltaStats reports each token's write-path counters, in shard
// order.
func (db *DB) TokenDeltaStats() []DeltaStats {
	out := make([]DeltaStats, len(db.tokens))
	for i, t := range db.tokens {
		out[i] = DeltaStats{
			Pages:         t.DeltaPages(),
			DMLStatements: t.DMLStatements(),
			Compactions:   t.Compactions(),
		}
	}
	return out
}

// Compact synchronously compacts every token carrying live delta state:
// each rewrites its base images and index catalog with the accumulated
// upserts folded in and resets its delta logs. Queries keep their
// answers across the swap (tombstones persist; upserts were already
// visible through the overlay), so the result cache is left untouched.
func (db *DB) Compact(ctx context.Context) error {
	for _, tok := range db.tokens {
		if _, err := db.compactOn(ctx, tok, nil); err != nil {
			return err
		}
	}
	return nil
}

// compactOn runs one token's compaction under a scheduled session,
// nested under parent when a trace wants it, and returns its Stats. The
// session is unsheddable (maintenance must run precisely when the engine
// is busiest) but otherwise indistinguishable from query work in the
// admission queue; past the slow threshold it leaves a COMPACT-kind
// slow-log entry, so background compactions are as visible as the
// statements that triggered them.
func (db *DB) compactOn(ctx context.Context, tok *Token, parent *obs.Span) (Stats, error) {
	if tok.DeltaPages() == 0 {
		return Stats{}, nil
	}
	min := compactFloor
	if b := tok.RAM.Buffers(); b < min {
		min = b
	}
	s, err := db.admit(ctx, tok, sched.Request{
		MinBuffers: min, WantBuffers: min, Unsheddable: true}, parent)
	if err != nil {
		return Stats{}, err
	}
	defer s.end()
	start := time.Now()
	var st Stats
	err = s.sess.Exclusive(ctx, func() error {
		g, err := s.sess.RAM().AllocBuffers(min)
		if err != nil {
			return err
		}
		defer g.Release()
		st, err = s.meter("", func(col *metrics.Collector) error {
			return col.Span(spanCompact, func() error { return db.compactToken(tok) })
		})
		return err
	})
	if err != nil {
		return Stats{}, err
	}
	db.inst.compactSecs[tok.id].Observe(time.Since(start).Seconds())
	db.observeStatement("COMPACT", func() string { return fmt.Sprintf("COMPACT(token %d)", tok.id) }, st)
	return st, nil
}

// compactToken rewrites the token's base state with its deltas folded
// in: fresh hidden images for tables with live upserts, a fresh index
// catalog built from the folded attribute values and the fk edges
// recovered from the old SKTs, then a delta reset (the tombstone set
// survives — ids never revive — checkpointed to flash by the reset).
// Tombstoned rows keep their positional slots in the rebuilt images and
// indexes; the persistent tombstone set keeps excluding them at read
// time, exactly as before the compaction, which is why answers are
// unchanged and the result cache needs no invalidation.
//
//ghostdb:requires-slot
func (db *DB) compactToken(tok *Token) error {
	tok.mu.Lock()
	cat := tok.Cat
	deltas := make(map[int]*delta.Table, len(tok.deltas))
	for ti, dl := range tok.deltas {
		deltas[ti] = dl
	}
	tok.mu.Unlock()
	work := false
	for _, dl := range deltas {
		if dl.Depth() > 0 || dl.DirtyCount() > 0 {
			work = true
			break
		}
	}
	if !work || cat == nil {
		return nil
	}

	inputs := make(map[int]*index.TableInput)
	newImgs := make(map[int]*store.RowFile)
	for _, t := range db.Sch.Tables {
		if db.TokenOf(t.Index) != tok {
			continue
		}
		rows := tok.rows[t.Index]
		in := &index.TableInput{Rows: rows}

		// Recover the fk edges from the SKT's direct-child columns; Build
		// re-derives the transitive descendants itself.
		if len(t.Children()) > 0 {
			skt, ok := cat.SKTOf(t.Index)
			if !ok {
				return fmt.Errorf("exec: compaction: no SKT for %s", t.Name)
			}
			in.FKs = make(map[int][]uint32, len(t.Children()))
			childPos := make(map[int]int, len(t.Children()))
			for _, c := range t.Children() {
				pos, ok := skt.ColumnOf(c)
				if !ok {
					return fmt.Errorf("exec: compaction: SKT of %s lacks child %s",
						t.Name, db.Sch.Tables[c].Name)
				}
				childPos[c] = pos
				in.FKs[c] = make([]uint32, 0, rows)
			}
			rd := skt.File().NewSeqReader()
			row := make([]uint32, len(skt.Descendants()))
			for {
				rec, _, ok, err := rd.Next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				skt.DecodeRow(rec, row)
				for _, c := range t.Children() {
					in.FKs[c] = append(in.FKs[c], row[childPos[c]])
				}
			}
		}

		// One sequential pass over the hidden image folds the overlay
		// into the per-column index inputs and, when the table carries
		// live upserts, a fresh base image.
		img := tok.Hidden[t.Index]
		dl := deltas[t.Index]
		if img != nil {
			var attrs []index.AttrData
			type colFill struct{ off, w, ai int }
			var fills []colFill
			for ci, col := range t.Columns {
				if !col.Hidden {
					continue
				}
				o, w := img.Codec.ColumnRange(img.ColPos[ci])
				attrs = append(attrs, index.AttrData{
					ColIdx: ci, Width: w, Data: make([]byte, 0, w*rows)})
				fills = append(fills, colFill{off: o, w: w, ai: len(attrs) - 1})
			}
			rebuild := dl != nil && dl.DirtyCount() > 0
			var nf *store.RowFile
			if rebuild {
				var err error
				nf, err = store.NewRowFile(tok.Dev, img.Codec.Width())
				if err != nil {
					return err
				}
			}
			err := img.scan(dl, func(_ uint32, rec []byte) error {
				for _, f := range fills {
					attrs[f.ai].Data = append(attrs[f.ai].Data, rec[f.off:f.off+f.w]...)
				}
				if rebuild {
					return nf.Append(rec)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if rebuild {
				if err := nf.Seal(); err != nil {
					return err
				}
				newImgs[t.Index] = nf
			}
			in.Attrs = attrs
		}
		inputs[t.Index] = in
	}
	if len(inputs) == 0 {
		return nil
	}
	newCat, err := index.Build(tok.Dev, db.Sch, inputs, index.VariantFull)
	if err != nil {
		return err
	}

	// Retire the replaced structures: old SKT files, the climbing
	// indexes' sublist segments, and the base images of rebuilt tables.
	// The climbing indexes' btree nodes have no free path — those pages
	// stay with the FTL until device reset, a documented trade-off of
	// the prototype's write-once page model.
	for _, t := range db.Sch.Tables {
		if db.TokenOf(t.Index) != tok {
			continue
		}
		if skt, ok := cat.SKTOf(t.Index); ok {
			if err := skt.File().Free(); err != nil {
				return err
			}
		}
		if ci, ok := cat.IDIndex(t.Index); ok {
			if err := ci.Lists().Free(); err != nil {
				return err
			}
		}
		for colIdx := range t.Columns {
			if ci, ok := cat.AttrIndex(t.Index, colIdx); ok {
				if err := ci.Lists().Free(); err != nil {
					return err
				}
			}
		}
		if nf, ok := newImgs[t.Index]; ok {
			old := tok.Hidden[t.Index]
			if err := old.File.Free(); err != nil {
				return err
			}
			// In-place swap: db.Hidden aliases the same *HiddenImage, so
			// the mono-token views see the fresh file immediately.
			old.File = nf
		}
		if dl := deltas[t.Index]; dl != nil {
			if err := dl.Reset(); err != nil {
				return err
			}
		}
	}

	tok.mu.Lock()
	tok.Cat = newCat
	tok.compactions++
	pages := 0
	for _, dl := range tok.deltas {
		pages += dl.Depth()
	}
	tok.deltaPages = pages
	tok.mu.Unlock()
	if tok.id == 0 {
		db.Cat = newCat
	}
	return nil
}
