package exec

import (
	"math"
	"time"

	"ghostdb/internal/bloom"
	"ghostdb/internal/delta"
	"ghostdb/internal/flash"
	"ghostdb/internal/index"
	"ghostdb/internal/metrics"
	"ghostdb/internal/query"
	"ghostdb/internal/store"
)

// The routes a hidden predicate's ids take to the Merge, named after the
// stage that evaluates them (HiddenSelEst.Route): an anchor id predicate
// filters the ids flowing by, an indexed predicate takes the CI stage,
// and the Scan stage reads the predicate's column out of every page of
// the hidden image.
const (
	RouteIDFilter = "id filter"
	RouteCI       = spanCI
	RouteScan     = spanScan
)

// mergeRoom is what the grant a plan requests leaves its Merge: avail
// buffers are free while a reduction pass runs (one is its spill writer,
// the rest its fan-in), and a group may keep streams of them as the
// final Merge's streams, the other groups keeping one each.
type mergeRoom struct {
	avail, streams int
}

// requestedRoom prices the Merge at the grant the plan will request: a
// SELECT's want (cfg may cap it, never below the floor), a DML's floor.
// Beside the reduction passes sit the store pipeline's claims at that
// grant, or a DML's write-stage claims, and the Bloom filters of the
// Post tables, sized as qepsj sizes them from their visible counts.
func (p *Plan) requestedRoom(db *DB, cfg QueryConfig, nGroups int) mergeRoom {
	grant := min(db.sessionRequest(p, cfg).WantBuffers, p.TotalBuffers)
	fp := p.Footprint
	held, keep := fp.StoreWriters+fp.SKTReader, 0
	switch {
	case p.DML:
		held, keep = 0, fp.StoreWriters
	case !p.storeDirect(grant):
		held = 1 + fp.SKTReader
	}
	bufSize := p.BufferBytes
	free := (grant - held) * bufSize
	var filtered []TablePlan
	for _, tp := range p.Tables {
		if (tp.Strategy == StratPost || tp.Strategy == StratCrossPost) && tp.SV <= 0.5 {
			filtered = append(filtered, tp)
		}
	}
	for _, tp := range filtered {
		bits := max(tp.VisCount, 1) * bloom.TargetBitsPerElement
		free -= max(0, min((bits+7)/8, grant*bufSize/2/len(filtered), free-fp.Merge*bufSize))
	}
	avail := free / bufSize
	return mergeRoom{avail: avail, streams: max(avail-keep-(nGroups-1), 1)}
}

// route decides how the hidden predicate hp, whose estimate est has just
// been recorded, reaches the Merge, and returns the flash traffic the
// plan's cost estimate charges it. An attribute predicate on
// the anchor is priced both ways and takes the cheaper route (CI on a
// tie): the Scan reads the image and writes and re-reads its matches;
// the CI descends the index, reads one sublist per matched entry at one
// page or more each, and pays the Merge reduction passes the room
// leaves. The pricing reads public sizes (rows, the image's page count,
// the grant) and the index's token-side statistics only, never the
// table's write history, so whether an earlier UPDATE matched cannot
// move it. Other predicates keep their one route: an id predicate on
// the anchor filters the id sequence flowing by and reads no flash, an
// indexed one climbs through its CI, an unindexed one scans.
func (p *Plan) route(db *DB, q *query.Query, hp query.Pred, est *HiddenSelEst, room mergeRoom) flashIO {
	rows := float64(db.Rows(hp.Table))
	// Index descent plus the matching sublist pages: the estimate of a
	// route priced one way only.
	unpriced := flashIO{
		reads: 3 + rows*est.Sel/float64(max(p.BufferBytes/store.IDBytes, 1)),
		bytes: 3*float64(p.BufferBytes) + rows*est.Sel*store.IDBytes,
	}
	matches := math.Round(rows * est.Sel)
	ci := p.tok.indexForPred(hp)
	switch {
	case hp.Table == q.Anchor && hp.ColIdx == query.IDCol:
		est.Route = RouteIDFilter
		return flashIO{}
	case hp.Table != q.Anchor:
		est.Route = RouteScan
		if ci != nil {
			if _, ok := ci.LevelOf(q.Anchor); ok {
				est.Route = RouteCI
			}
		}
		return unpriced
	}
	scan := db.scanIO(hp.Table, hp.ColIdx, matches, p.BufferBytes)
	est.Route, est.ScanCost = RouteScan, scan.time(db)
	if ci == nil {
		return scan
	}
	io, ok := p.ciIO(ci, matches, room)
	if !ok {
		est.Route, est.ScanCost = RouteCI, 0
		return unpriced
	}
	if est.CICost = io.time(db); est.CICost <= est.ScanCost {
		est.Route = RouteCI
		return io
	}
	return scan
}

// flashIO is an estimated flash traffic: page reads and writes, and the
// bytes the reads move into RAM (each priced per byte by the model).
type flashIO struct {
	reads, writes, bytes float64
}

// add adds o's traffic to io's.
func (io *flashIO) add(o flashIO) {
	io.reads += o.reads
	io.writes += o.writes
	io.bytes += o.bytes
}

// time prices the traffic under the engine's flash model.
func (io flashIO) time(db *DB) time.Duration {
	return db.opts.Model.IOTime(metrics.Sample{Flash: flash.Counters{
		PageReads:  uint64(math.Round(io.reads)),
		PageWrites: uint64(math.Round(io.writes)),
		BytesToRAM: uint64(math.Round(io.bytes)),
	}})
}

// scanIO prices a Scan of column col of the table's hidden image for
// matches rows: one sequential pass that loads every page of the image
// (imageShape) and moves the column's bytes of each row (all public
// like the table's size), then the matches written as one run, which
// the Merge reads back. A page is the size of a RAM buffer.
func (db *DB) scanIO(table, col int, matches float64, pageSize int) flashIO {
	pages, _ := db.imageShape(table, pageSize)
	m := math.Ceil(matches * store.IDBytes / float64(pageSize))
	return flashIO{
		reads:  float64(pages) + m,
		writes: m,
		bytes:  float64(db.Rows(table)*db.Sch.Tables[table].Columns[col].EncodedWidth()) + matches*store.IDBytes,
	}
}

// imageShape is the page count and row width of the table's hidden
// image, which follow from the row count and the widths of the hidden
// columns.
func (db *DB) imageShape(table, pageSize int) (pages, width int) {
	for _, c := range db.Sch.Tables[table].Columns {
		if c.Hidden {
			width += c.EncodedWidth()
		}
	}
	perPage := max(pageSize/max(width, 1), 1)
	return (db.Rows(table) + perPage - 1) / perPage, width
}

// writeIO prices a DML's write stage for matches rows. A hidden SET
// gathers the rows from the image: it loads the distinct pages holding
// them and moves matches rows. When its predicates are id bounds only,
// the rows are one contiguous id range, which lies on ⌈matches ÷ rows
// per page⌉ + 1 of the image's L pages at most; otherwise the ids are
// taken as spread uniformly, L·(1 − (1 − 1/L)^matches) pages (as
// idProbeReads counts leaves). A DELETE or a hidden SET then commits a
// record per row to its delta log, in whole pages, at least one. A
// visible-only UPDATE is applied by the untrusted store and costs the
// token nothing.
func (db *DB) writeIO(d *query.DML, matches float64, pageSize int) flashIO {
	var io flashIO
	rec := delta.RecordBytes(0)
	if d.HiddenSets() {
		pages, w := db.imageShape(d.Table, pageSize)
		io.reads = distinctHits(float64(pages), matches)
		if idBoundsOnly(d.Preds) {
			perPage := float64(max(pageSize/max(w, 1), 1))
			io.reads = min(math.Ceil(matches/perPage)+1, float64(pages))
		}
		io.bytes = matches * float64(w)
		rec = delta.RecordBytes(w)
	}
	if d.Delete || d.HiddenSets() {
		io.writes = max(math.Ceil(matches/float64(max(pageSize/rec, 1))), 1)
	}
	return io
}

// idBoundsOnly reports whether preds are all id bounds (and there is at
// least one), so the rows they keep form one contiguous id range.
func idBoundsOnly(preds []query.Pred) bool {
	for _, p := range preds {
		if p.ColIdx != query.IDCol {
			return false
		}
	}
	return len(preds) > 0
}

// ciIO prices an anchor attribute predicate's CI route: the descent to
// the first matching entry and the leaves holding the rest, each matched
// entry's sublist (rows per entry from the index's statistics) at one
// page or more, and the reduction passes that bring those sublists
// within the room's streams, every pass output written once and read
// once more. ok=false when the index keeps no statistics.
func (p *Plan) ciIO(ci *index.Climbing, matches float64, room mergeRoom) (flashIO, bool) {
	entries, rows, ok := ci.EstimateEntries()
	if !ok || entries == 0 {
		return flashIO{}, false
	}
	idsPerPage := max(p.BufferBytes/store.IDBytes, 1)
	per := max(int(math.Round(float64(rows)/float64(entries))), 1)
	subs := int(math.Round(matches / float64(per)))
	tr := ci.Tree()
	usable := p.BufferBytes * 9 / 10
	leafCap := max(usable/(tr.KeyWidth()+tr.PayloadWidth()), 1)
	fanout := max(usable/(tr.KeyWidth()+4), 2)
	_, height := treeShape(entries, leafCap, fanout)
	nodes := float64(height) + float64(subs)/float64(leafCap)
	subPages := (per + idsPerPage - 1) / idsPerPage
	spill, spillIDs := reductionPages(subs, per, room.streams, room.avail-1, idsPerPage)
	return flashIO{
		reads:  nodes + float64(subs*subPages+spill),
		writes: float64(spill),
		bytes:  nodes*float64(p.BufferBytes) + float64((subs*per+spillIDs)*store.IDBytes),
	}, true
}

// reductionPages is the pages and ids the Merge reduction (reduceGroups)
// writes to bring n sublists of per ids each within target streams, each pass
// unioning the k smallest sublists, k at most fanIn and no more than the
// deficit needs. Equal sublists are passed over in bulk: the sizes form
// a few classes, so the cost is logarithmic in n.
func reductionPages(n, per, target, fanIn, idsPerPage int) (pages, ids int) {
	fanIn = max(fanIn, 2)
	target = max(target, 1)
	type class struct{ ids, n int } // n sublists of ids each, ids ascending
	cls := []class{{per, n}}
	add := func(c class) {
		i := 0
		for i < len(cls) && cls[i].ids < c.ids {
			i++
		}
		if i < len(cls) && cls[i].ids == c.ids {
			cls[i].n += c.n
			return
		}
		cls = append(cls, class{})
		copy(cls[i+1:], cls[i:])
		cls[i] = c
	}
	write := func(n, times int) { // times pass outputs of n ids each
		pages += times * ((n + idsPerPage - 1) / idsPerPage)
		ids += times * n
	}
	for total := n; total > target; {
		k := min(fanIn, total-target+1)
		if c := &cls[0]; c.n >= k {
			// j passes over k sublists of the smallest class each.
			j := 1
			if k == fanIn {
				j = min(c.n/k, (total-target)/(fanIn-1))
			}
			c.n -= j * k
			write(k*c.ids, j)
			total -= j * (k - 1)
			out := class{k * c.ids, j}
			if c.n == 0 {
				cls = cls[1:]
			}
			add(out)
			continue
		}
		// One pass over the k smallest, across classes.
		out := 0
		for left := k; left > 0; {
			take := min(left, cls[0].n)
			out += take * cls[0].ids
			left -= take
			if cls[0].n -= take; cls[0].n == 0 {
				cls = cls[1:]
			}
		}
		write(out, 1)
		total -= k - 1
		add(class{out, 1})
	}
	return pages, ids
}
