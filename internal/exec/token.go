package exec

import (
	"sync"

	"ghostdb/internal/bus"
	"ghostdb/internal/delta"
	"ghostdb/internal/flash"
	"ghostdb/internal/index"
	"ghostdb/internal/ram"
	"ghostdb/internal/sched"
	"ghostdb/internal/store"
	"ghostdb/internal/untrusted"
)

// Token is one simulated secure token: a NAND flash device with its FTL,
// a tiny RAM budget, a throughput-limited USB link, the index catalog
// and hidden images of the tables placed on it, and its own FIFO-fair
// admission scheduler. It is the unit cross-token sharding multiplies:
// everything that used to be "the token" inside DB is one of these, and
// every query session runs against exactly one of them — so each token's
// leak surface is precisely the mono-token engine's, composed per shard
// (the ObliDB-style up-front session grant is what makes the composition
// safe).
//
// The Untr engine is the untrusted-side mirror of the same placement:
// visible columns travel over their own token's bus, so per-token byte
// counters stay exact.
type Token struct {
	id   int
	Dev  *flash.Device
	RAM  *ram.Manager
	Bus  *bus.Channel
	Untr *untrusted.Engine
	Cat  *index.Catalog
	// Hidden maps table index -> the flash-resident image of its hidden
	// non-key attributes (only tables placed on this token appear).
	Hidden map[int]*HiddenImage

	// deltas maps table index -> the table's live delta state (created
	// lazily by the first DML touching the table, always in-slot). The
	// map itself is populated under mu; the *delta.Table values are only
	// touched with the execution slot held.
	deltas map[int]*delta.Table

	// insBytes maps table index -> the staged working-set bytes of one
	// INSERT (hidden record + SKT row). It is derived once at load time
	// so the planner can size insert admission without touching the
	// hidden images outside the token slot; immutable after Load.
	insBytes map[int]int

	// spools maps a canonical Vis key (plus spool shape) to the
	// flash-resident spool retained from an earlier query, so a repeat of
	// the same visible selection at the same data version ships a fixed
	// header instead of the full run (the token side of the page cache).
	// Like Hidden, the map and its files are only touched with the
	// execution slot held; spoolLRU orders keys for in-slot eviction.
	spools   map[string]*retainedSpool
	spoolLRU []string

	// freePages is the free list of page-sized host buffers that sublist
	// streams and index-climb cursors borrow and return (pageBuf /
	// releasePageBuf). Touched only with the execution slot held, so it
	// needs no lock; it never holds more than the RAM budget's buffer
	// count, the most page readers a session can have open at once.
	freePages [][]byte

	sched *sched.Scheduler

	// mu guards rows (against the public Rows accessor; in-query reads
	// are serialized by the token's execution slot), the per-token totals,
	// the data version, the catalog pointer (swapped by compaction) and
	// the declassified delta telemetry mirrors below.
	mu      sync.Mutex
	rows    map[int]int
	totals  Totals
	version uint64

	// Declassified telemetry mirrors: public counts updated at DML
	// commit and compaction so observability code never reads hidden
	// delta state. What they reveal — statement counts and delta page
	// depth — is derivable from statement text plus commit volume, both
	// already visible to the untrusted observer.
	deltaPages  int
	dmlCount    uint64
	compactions uint64
	compacting  bool
}

// Unit is the narrow, read-only view of a secure token that the
// untrusted-side composition layers — placement diagnostics, per-shard
// STATS aggregation, the server frontend — operate through. *Token is
// the (only) simulated implementation; a hardware-backed token would
// satisfy the same interface.
type Unit interface {
	// TokenID is the token's shard ordinal.
	TokenID() int
	// Totals is the cumulative simulated cost of the query sessions this
	// token has completed.
	Totals() Totals
	// DataVersion counts the committed updates this token has applied
	// (the per-shard entry of the result cache's version vector).
	DataVersion() uint64
	// Running and QueueLen expose the admission scheduler's state.
	Running() int
	QueueLen() int
	// RAMBuffers is the token's secure RAM budget in whole buffers.
	RAMBuffers() int
}

var _ Unit = (*Token)(nil)

// TokenID returns the token's shard ordinal.
func (t *Token) TokenID() int { return t.id }

// Sched exposes the token's admission scheduler (diagnostics and tests).
func (t *Token) Sched() *sched.Scheduler { return t.sched }

// Running returns the token's admitted, unreleased session count.
func (t *Token) Running() int { return t.sched.Running() }

// QueueLen returns the token's admission queue length.
func (t *Token) QueueLen() int { return t.sched.QueueLen() }

// RAMBuffers returns the token's secure RAM budget in whole buffers.
func (t *Token) RAMBuffers() int { return t.RAM.Buffers() }

// insertFootprint returns the bytes one INSERT into table stages on the
// secure side (precomputed at load time, see insBytes).
func (t *Token) insertFootprint(table int) int { return t.insBytes[table] }

// Rows returns the cardinality of a table placed on this token.
func (t *Token) Rows(table int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rows[table]
}

func (t *Token) setRows(table, n int) {
	t.mu.Lock()
	t.rows[table] = n
	t.mu.Unlock()
}

// Totals returns a snapshot of this token's cumulative session costs.
func (t *Token) Totals() Totals {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totals
}

// mergeTotals folds one completed session's Stats into the token's
// totals. Fan-out queries merge once per per-token sub-session, so the
// per-shard byte counters always sum to exactly what an unsharded run
// of the same work would report.
func (t *Token) mergeTotals(st Stats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.totals.Queries++
	t.totals.SimTime += st.SimTime
	t.totals.IOTime += st.IOTime
	t.totals.CommTime += st.CommTime
	t.totals.Flash = t.totals.Flash.Add(st.Flash)
	t.totals.BusDown += st.BusDown
	t.totals.BusUp += st.BusUp
}

// DataVersion counts the committed updates applied to this token.
func (t *Token) DataVersion() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.version
}

func (t *Token) bumpVersion() {
	t.mu.Lock()
	t.version++
	t.mu.Unlock()
}

// catalog returns the token's index catalog under mu: compaction swaps
// the pointer (inside its execution slot), and plan-time readers run
// outside any slot, so the accessor is what keeps them racefree. A plan
// only derives scalar selectivities from the catalog; execution re-reads
// it in-slot, where the swap cannot interleave.
func (t *Token) catalog() *index.Catalog {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.Cat
}

// deltaOf returns the table's delta state, or nil when the table has
// never been touched by DML. Callers must hold the execution slot to
// dereference the result.
func (t *Token) deltaOf(table int) *delta.Table {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.deltas[table]
}

// deltaFor returns the table's delta state, creating it on first use.
// Must run with the execution slot held (it sizes the log off the
// hidden image).
//
//ghostdb:requires-slot
func (t *Token) deltaFor(table int) (*delta.Table, error) {
	t.mu.Lock()
	d := t.deltas[table]
	t.mu.Unlock()
	if d != nil {
		return d, nil
	}
	rowW := 0
	if img := t.Hidden[table]; img != nil {
		rowW = img.Codec.Width()
	}
	d, err := delta.NewTable(t.Dev, rowW)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.deltas[table] = d
	t.mu.Unlock()
	return d, nil
}

// pageBuf borrows a page-sized host buffer from the token's free list.
//
//ghostdb:requires-slot
func (t *Token) pageBuf() []byte {
	if n := len(t.freePages); n > 0 {
		b := t.freePages[n-1]
		t.freePages = t.freePages[:n-1]
		return b
	}
	return make([]byte, t.RAM.BufferSize())
}

// releasePageBuf returns a buffer taken with pageBuf; the caller must
// not touch it afterwards.
//
//ghostdb:requires-slot
func (t *Token) releasePageBuf(b []byte) {
	if len(t.freePages) < t.RAM.Buffers() {
		t.freePages = append(t.freePages, b)
	}
}

// retainedSpool is one table's flash-resident Vis spool kept across
// queries, stamped with the token data version it was built under.
//
//ghostdb:requires-slot
type retainedSpool struct {
	file    *store.RowFile
	cols    []int
	width   int
	version uint64
}

// maxRetainedSpools bounds the flash pages parked in retained Vis
// spools per token. The bound is a constant of the engine — spool
// residency is a function of the public query history, never of hidden
// match counts.
const maxRetainedSpools = 32

// retainedSpoolFor returns the still-valid retained spool for key, or
// nil. A spool built under an older data version is freed on sight —
// any committed write on this token may have changed the visible rows
// it encodes. Must run with the execution slot held.
//
//ghostdb:requires-slot
func (t *Token) retainedSpoolFor(key string) *retainedSpool {
	sp := t.spools[key]
	if sp == nil {
		return nil
	}
	if sp.version != t.DataVersion() {
		t.dropSpool(key, sp)
		return nil
	}
	t.touchSpool(key)
	return sp
}

// retainSpool parks a sealed spool under key, evicting the least
// recently used spools beyond the bound. Must run with the execution
// slot held (eviction frees flash pages).
//
//ghostdb:requires-slot
func (t *Token) retainSpool(key string, sp *retainedSpool) {
	if t.spools == nil {
		t.spools = make(map[string]*retainedSpool)
	}
	if old := t.spools[key]; old != nil {
		t.dropSpool(key, old)
	}
	t.spools[key] = sp
	t.spoolLRU = append(t.spoolLRU, key)
	for len(t.spoolLRU) > maxRetainedSpools {
		victim := t.spoolLRU[0]
		t.dropSpool(victim, t.spools[victim])
	}
}

// dropSpool frees one retained spool's pages and forgets its key.
//
//ghostdb:requires-slot
func (t *Token) dropSpool(key string, sp *retainedSpool) {
	delete(t.spools, key)
	for i, k := range t.spoolLRU {
		if k == key {
			t.spoolLRU = append(t.spoolLRU[:i], t.spoolLRU[i+1:]...)
			break
		}
	}
	if sp != nil {
		_ = sp.file.Free()
	}
}

// touchSpool moves key to the most-recently-used end.
func (t *Token) touchSpool(key string) {
	for i, k := range t.spoolLRU {
		if k == key {
			t.spoolLRU = append(append(t.spoolLRU[:i], t.spoolLRU[i+1:]...), key)
			return
		}
	}
}

// syncDeltaMirror refreshes the declassified delta-depth mirror from
// the live delta logs. Must run with the execution slot held.
//
//ghostdb:requires-slot
func (t *Token) syncDeltaMirror() {
	pages := 0
	t.mu.Lock()
	for _, d := range t.deltas {
		pages += d.Depth()
	}
	t.deltaPages = pages
	t.mu.Unlock()
}

// DeltaPages reports the token's live delta log depth in flash pages
// (declassified mirror; see the field comment).
func (t *Token) DeltaPages() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.deltaPages
}

// DMLStatements reports how many UPDATE/DELETE statements this token
// has committed.
func (t *Token) DMLStatements() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dmlCount
}

// Compactions reports how many delta compactions this token has run.
func (t *Token) Compactions() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.compactions
}

// Leaked reports whether any token's shared RAM budget was released
// with outstanding grants (an operator bookkeeping bug, surfaced for
// the benchmark and tests).
func (db *DB) Leaked() bool {
	for _, t := range db.tokens {
		if t.RAM.Leaked() {
			return true
		}
	}
	return false
}
