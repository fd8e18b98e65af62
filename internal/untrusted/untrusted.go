// Package untrusted implements the powerful-but-insecure side of GhostDB:
// the personal computer (or remote server) holding the Visible partition
// of every table. It evaluates the Visible conjuncts of a query and ships
// the resulting identifier lists — and any projected visible attribute
// values — down to the Secure USB key over the bus.
//
// Security model (§2.1): Untrusted sees only the query text and its own
// Visible data. It cannot filter what it sends using Hidden information
// (it has none), so the lists it produces may contain many irrelevant
// tuples; Secure must filter them out quickly (design rule 2, §2.3).
// Untrusted compute is modeled as free — the paper's costs are dominated
// by Secure-side I/O and the link.
package untrusted

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"ghostdb/internal/bus"
	"ghostdb/internal/cache"
	"ghostdb/internal/query"
	"ghostdb/internal/schema"
	"ghostdb/internal/sqlparse"
	"ghostdb/internal/store"
)

// Engine is the untrusted visible-data processor. It is safe for
// concurrent use: the query planner reads selectivity counts outside the
// secure token's serial execution slot, so reads and inserts may overlap.
type Engine struct {
	sch    *schema.Schema
	ch     *bus.Channel
	mu     sync.RWMutex
	tables []*tableStore
	// pc, when set, is the page cache: it holds encoded Vis runs keyed on
	// canonical per-table predicate text (VisKey). Cached values are
	// shared *VisResult pointers and immutable by contract; pcShards is
	// the one-shard set whose version stamps and invalidates this
	// engine's entries.
	pc       *cache.Cache
	pcShards []int
}

type tableStore struct {
	rows int
	cols []colStore // aligned with schema Columns; hidden slots empty
}

type colStore struct {
	width   int
	data    []byte
	present bool
}

// NewEngine creates an empty untrusted store for the schema.
func NewEngine(sch *schema.Schema, ch *bus.Channel) *Engine {
	e := &Engine{sch: sch, ch: ch, tables: make([]*tableStore, len(sch.Tables))}
	for i, t := range sch.Tables {
		e.tables[i] = &tableStore{cols: make([]colStore, len(t.Columns))}
	}
	return e
}

// LoadColumn installs the encoded values of one visible column (width
// bytes per row). Hidden columns must never be loaded here.
func (e *Engine) LoadColumn(table, colIdx int, width int, data []byte) error {
	t := e.sch.Tables[table]
	if colIdx < 0 || colIdx >= len(t.Columns) {
		return fmt.Errorf("untrusted: bad column %d for %q", colIdx, t.Name)
	}
	col := t.Columns[colIdx]
	if col.Hidden {
		return fmt.Errorf("untrusted: refusing hidden column %s.%s", t.Name, col.Name)
	}
	if width != col.EncodedWidth() {
		return fmt.Errorf("untrusted: width %d != %d for %s.%s", width, col.EncodedWidth(), t.Name, col.Name)
	}
	if len(data)%width != 0 {
		return fmt.Errorf("untrusted: ragged column data for %s.%s", t.Name, col.Name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ts := e.tables[table]
	n := len(data) / width
	if ts.rows == 0 {
		ts.rows = n
	} else if ts.rows != n {
		return fmt.Errorf("untrusted: column %s.%s has %d rows, table has %d", t.Name, col.Name, n, ts.rows)
	}
	ts.cols[colIdx] = colStore{width: width, data: data, present: true}
	return nil
}

// SetRows fixes the row count for tables with no visible columns.
func (e *Engine) SetRows(table, rows int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	ts := e.tables[table]
	if ts.rows != 0 && ts.rows != rows {
		return fmt.Errorf("untrusted: row count mismatch: %d vs %d", ts.rows, rows)
	}
	ts.rows = rows
	return nil
}

// Rows returns the visible row count of a table.
func (e *Engine) Rows(table int) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tables[table].rows
}

// InsertRow appends the visible values of a new tuple (aligned with the
// table's visible columns, in declaration order).
func (e *Engine) InsertRow(table int, visible []schema.Value) error {
	t := e.sch.Tables[table]
	e.mu.Lock()
	defer e.mu.Unlock()
	ts := e.tables[table]
	vi := 0
	for ci, col := range t.Columns {
		if col.Hidden {
			continue
		}
		if vi >= len(visible) {
			return fmt.Errorf("untrusted: missing value for %s.%s", t.Name, col.Name)
		}
		w := col.EncodedWidth()
		if !ts.cols[ci].present {
			ts.cols[ci] = colStore{width: w, present: true}
		}
		buf := make([]byte, w)
		if err := schema.EncodeValue(buf, visible[vi]); err != nil {
			return fmt.Errorf("untrusted: %s.%s: %w", t.Name, col.Name, err)
		}
		ts.cols[ci].data = append(ts.cols[ci].data, buf...)
		vi++
	}
	if vi != len(visible) {
		return fmt.Errorf("untrusted: %d visible values for %d visible columns", len(visible), vi)
	}
	ts.rows++
	return nil
}

// UpdateRows overwrites one visible column of the listed rows in place.
// The caller (the resolver's write-path rule) guarantees ids were
// derived from visible predicates or id arithmetic only — public data —
// so handing the matched set to the untrusted store reveals nothing a
// spy could not compute itself from the statement text.
func (e *Engine) UpdateRows(table, colIdx int, ids []uint32, v schema.Value) error {
	t := e.sch.Tables[table]
	if colIdx < 0 || colIdx >= len(t.Columns) || t.Columns[colIdx].Hidden {
		return fmt.Errorf("untrusted: bad visible column %d for %q", colIdx, t.Name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ts := e.tables[table]
	c := ts.cols[colIdx]
	if !c.present {
		return fmt.Errorf("untrusted: column %s.%s not loaded", t.Name, t.Columns[colIdx].Name)
	}
	buf := make([]byte, c.width)
	if err := schema.EncodeValue(buf, v); err != nil {
		return fmt.Errorf("untrusted: %s.%s: %w", t.Name, t.Columns[colIdx].Name, err)
	}
	for _, id := range ids {
		if int(id) >= ts.rows {
			return fmt.Errorf("untrusted: row %d out of range for %q", id, t.Name)
		}
		copy(c.data[int(id)*c.width:(int(id)+1)*c.width], buf)
	}
	return nil
}

// visPred is one visible predicate compiled for a scan: its bounds are
// encoded, its column slice and its operator resolved once, so the row
// loop (scanVis) neither copies a query.Pred nor switches on its
// operator.
type visPred struct {
	col   []byte // the column's encoded rows; nil for the id column
	width int    // bytes per row; 0 for the id column
	// accept[c+1] tells whether a row ordered c (-1, 0, +1) against lo
	// satisfies the operator; BETWEEN also needs the row <= hi.
	accept  [3]bool
	between bool
	lo, hi  visBound
}

// visBound is an encoded comparison bound. Rows of 8 to 16 bytes, and
// ids, compare as big-endian words: w0 holds the first eight bytes (a
// biased id), w1 the last eight, overlapping w0 below 16 bytes (the
// shared bytes are equal whenever w0 ties).
type visBound struct {
	b      []byte
	w0, w1 uint64
}

// signBit biases an int64 into the order-preserving uint64 EncodeValue
// writes.
const signBit = 1 << 63

// accepts maps each operator to the orderings against its (low) bound
// that satisfy it.
var accepts = map[sqlparse.CompareOp][3]bool{
	sqlparse.OpEq:      {false, true, false},
	sqlparse.OpNe:      {true, false, true},
	sqlparse.OpLt:      {true, false, false},
	sqlparse.OpLe:      {true, true, false},
	sqlparse.OpGt:      {false, false, true},
	sqlparse.OpGe:      {false, true, true},
	sqlparse.OpBetween: {false, true, true},
}

// compare orders row's value against a bound: -1, 0 or +1.
func (p *visPred) compare(row int, b *visBound) int {
	w := p.width
	switch {
	case w == 0:
		return cmp.Compare(uint64(row)^signBit, b.w0)
	case w < 8 || w > 16:
		return bytes.Compare(p.col[row*w:(row+1)*w], b.b)
	}
	v := p.col[row*w : (row+1)*w]
	if c := cmp.Compare(binary.BigEndian.Uint64(v), b.w0); c != 0 || w == 8 {
		return c
	}
	return cmp.Compare(binary.BigEndian.Uint64(v[w-8:]), b.w1)
}

// holds reports whether row satisfies the predicate.
func (p *visPred) holds(row int) bool {
	return p.accept[p.compare(row, &p.lo)+1] && (!p.between || p.compare(row, &p.hi) <= 0)
}

// scanVis calls hit, in row order, for every row satisfying the whole
// conjunction: the one match loop behind CountVis and computeVis.
func scanVis(rows int, preds []visPred, hit func(row int)) {
next:
	for row := 0; row < rows; row++ {
		for i := range preds {
			if !preds[i].holds(row) {
				continue next
			}
		}
		hit(row)
	}
}

// VisResult is the product of the Vis operator (§3.3): the sorted list of
// identifiers of tuples satisfying every Visible predicate of the query
// on one table, together with the projected visible attribute values.
type VisResult struct {
	Table    int
	IDs      []uint32 // ascending
	ProjCols []int    // visible column positions shipped with each id
	RowWidth int      // bytes per shipped row: 4 (id) + Σ col widths
	Rows     []byte   // len(IDs) rows of RowWidth bytes (empty if no cols)
	Bytes    int      // bytes that crossed the link
}

// compilePreds validates the visible predicates of one table and
// compiles them for scanVis. The caller holds at least a read lock.
func (e *Engine) compilePreds(table int, preds []query.Pred) ([]visPred, error) {
	t := e.sch.Tables[table]
	ts := e.tables[table]
	out := make([]visPred, len(preds))
	for i, p := range preds {
		vp := &out[i]
		vp.accept, vp.between = accepts[p.Op], p.Op == sqlparse.OpBetween
		// Identifier predicates are acceptable even though the resolver
		// routes them to Secure by default: ids are replicated on both
		// sides (§2.1) and reveal nothing.
		if p.ColIdx == query.IDCol {
			vp.lo.w0, vp.hi.w0 = uint64(p.Lo.I)^signBit, uint64(p.Hi.I)^signBit
			continue
		}
		if p.Hidden {
			return nil, fmt.Errorf("untrusted: refusing hidden predicate on %s", t.Name)
		}
		col := t.Columns[p.ColIdx]
		if col.Hidden {
			return nil, fmt.Errorf("untrusted: refusing hidden column %s.%s", t.Name, col.Name)
		}
		c := ts.cols[p.ColIdx]
		if !c.present {
			return nil, fmt.Errorf("untrusted: column %s.%s not loaded", t.Name, col.Name)
		}
		vp.col, vp.width = c.data, c.width
		if err := vp.lo.encode(p.Lo, c.width); err != nil {
			return nil, err
		}
		if vp.between {
			if err := vp.hi.encode(p.Hi, c.width); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// encode sets b to v encoded at the column width.
func (b *visBound) encode(v schema.Value, width int) error {
	b.b = make([]byte, width)
	if err := schema.EncodeValue(b.b, v); err != nil {
		return err
	}
	if width >= 8 {
		b.w0, b.w1 = binary.BigEndian.Uint64(b.b), binary.BigEndian.Uint64(b.b[width-8:])
	}
	return nil
}

// CountVis counts the rows of one table satisfying the visible
// conjunction without shipping anything: the planner's selectivity
// source. Untrusted compute is free in the paper's cost model and the
// count travels alongside the query exchange, so nothing is metered.
func (e *Engine) CountVis(table int, preds []query.Pred) (int, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	cps, err := e.compilePreds(table, preds)
	if err != nil {
		return 0, err
	}
	n := 0
	scanVis(e.tables[table].rows, cps, func(int) { n++ })
	return n, nil
}

// SetPageCache attaches the untrusted-side page cache: ComputeVis will
// serve repeated canonical keys from it instead of rescanning and
// re-encoding. shard is the secure token this engine fronts, so
// committed writes invalidate exactly this engine's entries via
// cache.BumpShard.
func (e *Engine) SetPageCache(pc *cache.Cache, shard int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pc, e.pcShards = pc, []int{shard}
}

// VisKey canonicalizes one table's Vis computation: table name, each
// resolved predicate's column/operator/bounds, and the projected
// columns. It is a deterministic function of the resolved query text —
// the one thing GhostDB's model already reveals — so using it as a
// cache key leaks nothing (hit-or-miss is predictable from the public
// query history alone).
func (e *Engine) VisKey(table int, preds []query.Pred, projCols []int) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "vis|%s", e.sch.Tables[table].Name)
	for _, p := range preds {
		fmt.Fprintf(&b, "|p%d.%d:%v:%v", p.ColIdx, p.Op, p.Lo, p.Hi)
	}
	b.WriteString("|c")
	for _, ci := range projCols {
		fmt.Fprintf(&b, ".%d", ci)
	}
	return b.String()
}

// VisHeaderBytes is the size of the fixed control header shipped in
// place of a full Vis payload when the token already retains the
// identical spool from an earlier execution: a 4-byte row count, a
// 4-byte row width and an 8-byte spool identifier. Its size is a constant
// of the protocol — never a function of data — so header shipments are
// indistinguishable from one another on the wire.
const VisHeaderBytes = 16

// ShipVisHeader meters the fixed header telling the token to reuse its
// retained, still-valid spool for this table instead of receiving the
// full run again. Returns the bus.Req so callers can coalesce several
// per-table shipments into one TransferBatch instead.
func (e *Engine) ShipVisHeader(table int) bus.Req {
	return bus.Req{Kind: "vis-hdr:" + e.sch.Tables[table].Name, Bytes: VisHeaderBytes}
}

// ShipVisReq describes the full Down shipment of a computed VisResult
// as a bus.Req, for coalescing with other tables' shipments.
func (e *Engine) ShipVisReq(res *VisResult) bus.Req {
	return bus.Req{Kind: "vis:" + e.sch.Tables[res.Table].Name, Bytes: res.Bytes}
}

// Ship meters one prepared request on the Down link.
func (e *Engine) Ship(req bus.Req) error {
	return e.ch.Transfer(bus.Down, req.Kind, req.Bytes, "")
}

// ShipBatch meters several prepared requests as one coalesced Down
// round-trip.
func (e *Engine) ShipBatch(reqs []bus.Req) error {
	return e.ch.TransferBatch(bus.Down, reqs)
}

// ComputeVis evaluates the visible conjunction for one table without
// metering anything: untrusted compute is free in the paper's cost
// model, and the caller decides how the result reaches the token
// (ShipVisReq for the full payload, ShipVisHeader when the token
// retains the identical spool). Repeated canonical keys are served from
// the page cache when one is attached — the returned *VisResult is then
// shared and must be treated as immutable, which every reader in
// internal/exec already does.
func (e *Engine) ComputeVis(table int, preds []query.Pred, projCols []int) (*VisResult, error) {
	if e.pc == nil {
		return e.computeVis(table, preds, projCols)
	}
	key := e.VisKey(table, preds, projCols)
	v, _, err := e.pc.Do(context.TODO(), key, e.pcShards, func() (any, int64, error) {
		res, err := e.computeVis(table, preds, projCols)
		if err != nil {
			return nil, 0, err
		}
		return res, int64(len(res.Rows) + len(res.IDs)*store.IDBytes + 64), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*VisResult), nil
}

// Vis evaluates the visible conjunction for one table and transfers the
// result down to Secure, accounting every byte on the channel. projCols
// lists the visible columns whose values the projection will need.
func (e *Engine) Vis(table int, preds []query.Pred, projCols []int) (*VisResult, error) {
	res, err := e.ComputeVis(table, preds, projCols)
	if err != nil {
		return nil, err
	}
	if err := e.Ship(e.ShipVisReq(res)); err != nil {
		return nil, err
	}
	return res, nil
}

// computeVis is the uncached scan-and-encode: every row satisfying the
// visible conjunction yields its id (and, with projCols, its encoded
// visible values).
func (e *Engine) computeVis(table int, preds []query.Pred, projCols []int) (*VisResult, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t := e.sch.Tables[table]
	ts := e.tables[table]
	cps, err := e.compilePreds(table, preds)
	if err != nil {
		return nil, err
	}
	res := &VisResult{Table: table, ProjCols: projCols, RowWidth: store.IDBytes}
	for _, ci := range projCols {
		col := t.Columns[ci]
		if col.Hidden {
			return nil, fmt.Errorf("untrusted: cannot project hidden column %s.%s", t.Name, col.Name)
		}
		if !ts.cols[ci].present {
			return nil, fmt.Errorf("untrusted: column %s.%s not loaded", t.Name, col.Name)
		}
		res.RowWidth += col.EncodedWidth()
	}
	scanVis(ts.rows, cps, func(row int) { res.IDs = append(res.IDs, uint32(row)) })
	// The ids are known now, so the payload is allocated once at its
	// exact size instead of growing row by row.
	if len(projCols) > 0 {
		res.Rows = make([]byte, 0, len(res.IDs)*res.RowWidth)
		for _, id := range res.IDs {
			res.Rows = binary.BigEndian.AppendUint32(res.Rows, id)
			for _, ci := range projCols {
				c := ts.cols[ci]
				res.Rows = append(res.Rows, c.data[int(id)*c.width:(int(id)+1)*c.width]...)
			}
		}
	}
	// Account the transfer size: a 4-byte count header, then either bare
	// ids or full (id, values) rows. The bytes are metered at ship time.
	res.Bytes = 4
	if len(projCols) > 0 {
		res.Bytes += len(res.Rows)
	} else {
		res.Bytes += len(res.IDs) * store.IDBytes
	}
	return res, nil
}

// Value decodes one stored visible value (final result assembly of
// visible-only queries, and tests).
func (e *Engine) Value(table, colIdx int, id uint32) (schema.Value, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t := e.sch.Tables[table]
	ts := e.tables[table]
	c := ts.cols[colIdx]
	if !c.present {
		return schema.Value{}, fmt.Errorf("untrusted: column %s.%s not loaded", t.Name, t.Columns[colIdx].Name)
	}
	return schema.DecodeValue(c.data[int(id)*c.width:(int(id)+1)*c.width], t.Columns[colIdx].Kind)
}
