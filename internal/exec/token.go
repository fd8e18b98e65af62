package exec

import (
	"slices"
	"sync"
	"time"

	"ghostdb/internal/bus"
	"ghostdb/internal/delta"
	"ghostdb/internal/flash"
	"ghostdb/internal/index"
	"ghostdb/internal/ram"
	"ghostdb/internal/sched"
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

	// spools holds the flash-resident Vis spools retained from earlier
	// queries, least recently used first, so a repeat of the same visible
	// selection before the token's next committed write ships a fixed
	// header instead of the full run (the token side of the page cache).
	// Like Hidden, the slice and its files are only touched with the
	// execution slot held.
	spools []retainedSpool

	// freePages is the free list of page-sized host buffers that a
	// SELECT's id-list readers, index-climb cursors and temp segment
	// writers borrow and return (pageBuf / releasePageBuf). Touched only
	// with the execution slot held, so it needs no lock; it never holds
	// more than the RAM budget's buffer count, the most page buffers a
	// session can have open at once. lent counts the buffers out of it.
	freePages [][]byte
	lent      int

	// paceOwed is the paced-mode balance (pace): real time the slot still
	// owes the simulated cost or, when negative, what is left of the last
	// pacing sleep's overshoot, carried as credit. Touched only with the
	// execution slot held.
	paceOwed time.Duration

	sched *sched.Scheduler

	// mu guards rows (against the public Rows accessor; in-query reads
	// are serialized by the token's execution slot), the per-token totals,
	// the catalog pointer (swapped by compaction) and the declassified
	// delta telemetry mirrors below.
	mu     sync.Mutex
	rows   map[int]int
	totals Totals

	// Declassified telemetry mirrors: public counts updated at DML
	// commit and compaction so observability code and the planner never
	// read hidden delta state. What they reveal — statement counts, delta
	// page depth and the size of each table's liveness and images reads
	// — is derivable from statement text plus commit and compaction
	// volume, all already visible to the untrusted observer.
	deltaPages  int
	deltaReads  map[int][2]flashIO // table -> [liveness, images] Refresh traffic
	dmlCount    uint64
	compactions uint64
	compacting  bool
}

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

// Totals returns a snapshot of the cumulative simulated cost of the
// metered sessions (SELECT, UPDATE, DELETE, COMPACT) this token has
// completed; INSERT is admitted but not metered, so it is not booked.
func (t *Token) Totals() Totals {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totals
}

// mergeTotals folds one metered session's Stats into the token's
// totals (session.meter calls it). Fan-out queries merge once per
// per-token sub-session, so the per-shard byte counters always sum to
// exactly what an unsharded run of the same work would report.
func (t *Token) mergeTotals(st Stats) {
	t.mu.Lock()
	t.totals.add(st)
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
	t.lent++
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
	t.lent--
	if len(t.freePages) < t.RAM.Buffers() {
		t.freePages = append(t.freePages, b)
	}
}

// pace holds the execution slot for d of real time on average over the
// token's statements: d joins the pace balance, and the token sleeps only
// while the balance is positive, subtracting the sleep it measured. A
// sleep's overshoot (timer slack) so becomes credit that the next
// statements use up, and because a sleep starts only on a positive
// balance, the credit never exceeds one sleep's overshoot.
//
//ghostdb:requires-slot
func (t *Token) pace(d time.Duration) {
	t.paceOwed += d
	for t.paceOwed > 0 {
		start := time.Now()
		time.Sleep(t.paceOwed)
		t.paceOwed -= time.Since(start)
	}
}

// retainedSpool is one table's flash-resident Vis spool kept across
// queries under its canonical Vis key (plus spool shape).
type retainedSpool struct {
	key string
	visSpool
}

// maxRetainedSpools bounds the flash pages parked in retained Vis
// spools per token. The bound is a constant of the engine — spool
// residency is a function of the public query history, never of hidden
// match counts.
const maxRetainedSpools = 32

// retainedSpoolFor returns the retained spool for key and marks it most
// recently used. Every retained spool is current: a committed write on
// this token drops them all (dropSpools).
//
//ghostdb:requires-slot
func (t *Token) retainedSpoolFor(key string) (visSpool, bool) {
	for i, sp := range t.spools {
		if sp.key == key {
			t.spools = append(slices.Delete(t.spools, i, i+1), sp)
			return sp.visSpool, true
		}
	}
	return visSpool{}, false
}

// retainSpool parks a sealed spool under key, freeing the least recently
// used spools beyond the bound.
//
//ghostdb:requires-slot
func (t *Token) retainSpool(key string, sp visSpool) {
	if i := slices.IndexFunc(t.spools, func(r retainedSpool) bool { return r.key == key }); i >= 0 {
		_ = t.spools[i].file.Free()
		t.spools = slices.Delete(t.spools, i, i+1)
	}
	t.spools = append(t.spools, retainedSpool{key, sp})
	if n := len(t.spools) - maxRetainedSpools; n > 0 {
		for _, old := range t.spools[:n] {
			_ = old.file.Free()
		}
		t.spools = slices.Delete(t.spools, 0, n)
	}
}

// dropSpools frees every retained spool. The commit hook calls it: any
// committed write on this token may have changed the visible rows a
// spool encodes.
//
//ghostdb:requires-slot
func (t *Token) dropSpools() {
	for _, sp := range t.spools {
		_ = sp.file.Free()
	}
	t.spools = t.spools[:0]
}

// syncDeltaMirror refreshes the declassified delta-depth mirror from
// the live delta logs. Must run with the execution slot held.
//
//ghostdb:requires-slot
func (t *Token) syncDeltaMirror() {
	pages := 0
	t.mu.Lock()
	for ti, d := range t.deltas {
		pages += d.Depth()
		var reads [2]flashIO
		for i, images := range []bool{false, true} {
			p, b := d.ReadSize(images)
			reads[i] = flashIO{reads: float64(p), bytes: float64(b)}
		}
		t.deltaReads[ti] = reads
	}
	t.deltaPages = pages
	t.mu.Unlock()
}

// deltaReadIO is the flash traffic of the planned overlay read dr, from
// the declassified mirror (zero for a table no DML has touched).
func (t *Token) deltaReadIO(dr deltaRead) flashIO {
	t.mu.Lock()
	defer t.mu.Unlock()
	if dr.images {
		return t.deltaReads[dr.table][1]
	}
	return t.deltaReads[dr.table][0]
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

// Leaked reports whether any token's RAM bookkeeping went wrong (an
// operator bug, surfaced for the benchmark and tests): grants still
// outstanding on its shared budget, or a session released while its
// private budget, which the operators claim from, still held claims.
func (db *DB) Leaked() bool {
	for _, t := range db.tokens {
		if t.RAM.Leaked() || t.sched.Leaks() != 0 {
			return true
		}
	}
	return false
}
