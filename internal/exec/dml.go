package exec

import (
	"context"
	"fmt"
	"time"

	"ghostdb/internal/delta"
	"ghostdb/internal/index"
	"ghostdb/internal/metrics"
	"ghostdb/internal/obs"
	"ghostdb/internal/query"
	"ghostdb/internal/ram"
	"ghostdb/internal/sched"
	"ghostdb/internal/schema"
	"ghostdb/internal/store"
)

// This file is the DML write path: an UPDATE or DELETE is a query. Its
// WHERE clause is planned by PlanQuery as the one-table query
// `SELECT T.id FROM T WHERE …` (whereQuery; anchor = the target table,
// never the visible-only fast path) and runs through runSelectOn's
// session and the SELECT's stages: Delta refresh, Vis, CI or Scan as
// staleIndex decides, then the Merge with its id-predicate clip and
// tombstone filter. Only the Merge's consumer differs: instead of the
// store pipeline, the ascending matched ids feed one write stage
// (writeRows) that stages the statement's secure-side effects in the
// table's delta log (internal/delta) and commits them. When the log
// grows past the threshold, the accumulated deltas go to a background
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
//     set derives from public data (visible or id predicates). With no
//     hidden predicate the Merge is the clipped id sequence or the Vis
//     stream, so such an UPDATE touches no token flash.
//
// One consequence: on a clean table a hidden-predicate DML costs what
// the SELECT of its WHERE costs (the climbing index serves it, and the
// Merge reduces its sublists within the DML's floor grant), so its flash
// traffic depends on how many rows match, exactly as that SELECT's
// already does. Only a dirty table (live upserts make its indexes stale)
// still pays the data-independent full-image Scan.

// compactFloor is the RAM floor of a compaction session: one buffer for
// the sequential base-image/SKT reads, one for the row being folded, one
// for the rebuild append path. Like every admission floor it is a
// constant — never a function of hidden state.
const compactFloor = 3

// spanDML / spanCompact name the cost spans covering the write path's
// secure-side work, mirroring the read path's per-operator spans.
const (
	spanDML     = "DML"
	spanCompact = "Compact"
)

// whereQuery is a DML's WHERE clause as the one-table query
// SELECT T.id FROM T WHERE …, carrying the statement's canonical text as
// its SQL: the text the session uploads, EXPLAIN and the slow log show.
func whereQuery(d *query.DML) *query.Query {
	return &query.Query{
		SQL:         d.Canonical(),
		Tables:      []int{d.Table},
		Anchor:      d.Table,
		Preds:       d.Preds,
		Projections: []query.Proj{{Table: d.Table, ColIdx: query.IDCol}},
	}
}

// writeClaims is a DML write stage's claims, a function of the
// statement's public shape only: the page a hidden SET's read-modify-
// write reads hidden rows through, and the delta-append page of a
// statement with secure-side work (a DELETE or a hidden SET). A
// visible-only UPDATE claims nothing: the untrusted store applies it.
func writeClaims(d *query.DML) []ram.Claim {
	var claims []ram.Claim
	if d.HiddenSets() {
		claims = append(claims, ram.Claim{Name: "row-reader", Min: 1, Want: 1})
	}
	if d.Delete || d.HiddenSets() {
		claims = append(claims, ram.Claim{Name: "delta-append", Min: 1, Want: 1})
	}
	return claims
}

// writeRows is a DML's write stage, the consumer of its Merge: it pulls
// the matched ids in ascending order a batch at a time (under the Merge
// span, as joinAndStore does) and, under the DML span, stages a
// tombstone per id (DELETE) or a read-modify-write upsert (hidden SET),
// and keeps the ids a visible SET hands to the untrusted store. Then it
// commits the statement's batch, padded to whole pages; resN counts the
// affected rows. A hidden SET first records its SET columns in the
// table's delta (NoteSets), before it stages anything, so the list
// always covers every column an overlay row differs in. It rewrites the
// ids one image page at a time: the rows of a page the overlay does not
// serve are gathered in one page load that moves only those rows
// (store.GatherReader, through a page lent under the row-reader claim),
// and a page's run is held across the Merge batch boundary, so no page
// is loaded twice. The overlay serves a row only when the run's Delta
// stage read the upsert log (overlay): otherwise no earlier SET since
// the last compaction named a column this one does not overwrite, so
// the base row with this SET's values written in is the overlay row.
// Its claims (writeClaims) are taken with the Merge stage's, after a
// reduction that leaves them room.
func (r *queryRun) writeRows(d *query.DML, merged idStream) error {
	tok := r.tok
	img := tok.Hidden[d.Table]
	// DELETEs and hidden SETs stage secure-side work; a visible-only
	// UPDATE must not touch the token's flash (it would charge secure
	// write cost for untrusted-side work).
	secure := d.Delete || d.HiddenSets()
	var dl *delta.Table
	if secure {
		var err error
		if dl, err = tok.deltaFor(d.Table); err != nil {
			return err
		}
	}
	var rows store.GatherReader
	var rec []byte
	var run, gather []uint32 // one image page's matched ids, and those the overlay lacks
	ov := r.overlay(d.Table)
	if d.HiddenSets() {
		if img == nil {
			return fmt.Errorf("exec: hidden SET on %s without a hidden image", r.db.Sch.Tables[d.Table].Name)
		}
		if dl.NoteSets(d.HiddenSetCols()) {
			tok.syncDeltaMirror()
		}
		buf := r.lend()
		defer tok.releasePageBuf(buf)
		img.File.InitGatherReader(&rows, buf)
		rec = make([]byte, img.Codec.Width())
	}
	// served returns the overlay row of id when the overlay serves it.
	served := func(id uint32) ([]byte, bool) {
		if ov == nil {
			return nil, false
		}
		return ov.Lookup(id)
	}
	// flush stages the run: the rows the overlay does not serve come from
	// one gather of their page, then each id's row, the SET values
	// encoded in, is upserted in ascending id order.
	flush := func() error {
		gather = gather[:0]
		for _, id := range run {
			if _, ok := served(id); !ok {
				gather = append(gather, id)
			}
		}
		if err := rows.Load(gather); err != nil {
			return err
		}
		for _, id := range run {
			if ov, ok := served(id); ok {
				copy(rec, ov)
			} else {
				copy(rec, rows.Row(id))
			}
			for _, s := range d.Sets {
				if !s.Hidden {
					continue
				}
				o, w := img.Codec.ColumnRange(img.ColPos[s.ColIdx])
				if err := schema.EncodeValue(rec[o:o+w], s.Val); err != nil {
					return err
				}
			}
			if err := dl.StageUpsert(id, rec); err != nil {
				return err
			}
		}
		run = run[:0]
		return nil
	}
	// write stages one id: its tombstone, or its place in the run of its
	// image page, flushing the run of the page before.
	write := func(id uint32) error {
		if d.Delete {
			return dl.StageTombstone(id)
		}
		if len(run) > 0 && img.File.PageOf(id) != img.File.PageOf(run[0]) {
			if err := flush(); err != nil {
				return err
			}
		}
		run = append(run, id)
		return nil
	}

	batch := make([]uint32, max(r.ram.BufferSize()/store.IDBytes, 16))
	var visIDs []uint32 // the ids a visible SET hands the untrusted store
	for {
		k := 0
		err := r.stage(spanMerge, nil, func(*ram.Reservation) error {
			for k < len(batch) {
				v, ok, err := merged.next()
				if err != nil || !ok {
					return err
				}
				batch[k] = v
				k++
			}
			return nil
		})
		if err != nil {
			return err
		}
		if k == 0 {
			break
		}
		r.resN += k
		if d.VisibleSets() {
			visIDs = append(visIDs, batch[:k]...)
		}
		if !secure {
			continue
		}
		err = r.stage(spanDML, nil, func(*ram.Reservation) error {
			for _, id := range batch[:k] {
				if err := write(id); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return r.stage(spanDML, nil, func(*ram.Reservation) error {
		// Visible SETs go to the untrusted store in place. The resolver
		// guarantees the matched set derives from visible or id
		// predicates only, so handing it over reveals nothing the spy
		// could not compute from the statement text; no bus transfer is
		// charged for the same reason.
		for _, s := range d.Sets {
			if s.Hidden {
				continue
			}
			if err := tok.Untr.UpdateRows(d.Table, s.ColIdx, visIDs, s.Val); err != nil {
				return err
			}
		}
		// The last page's run, then the page-aligned commit to the log
		// of the statement's kind: its flash write volume is a whole
		// number of pages, at least one, even when nothing matched.
		if len(run) > 0 {
			if err := flush(); err != nil {
				return err
			}
		}
		if secure {
			commit := dl.Commit
			if d.Delete {
				commit = dl.CommitDeletes
			}
			if err := commit(); err != nil {
				return err
			}
		}
		tok.mu.Lock()
		tok.dmlCount++
		tok.mu.Unlock()
		tok.syncDeltaMirror()
		r.db.committed(tok)
		return nil
	})
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
			buf := make([]byte, tok.Dev.PageSize())
			err := img.scan(dl, 0, img.Codec.Width(), buf, func(_ uint32, rec []byte) error {
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
	tok.mu.Unlock()
	tok.syncDeltaMirror()
	if tok.id == 0 {
		db.Cat = newCat
	}
	return nil
}
