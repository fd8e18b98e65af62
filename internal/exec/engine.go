package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"ghostdb/internal/bus"
	"ghostdb/internal/cache"
	"ghostdb/internal/delta"
	"ghostdb/internal/flash"
	"ghostdb/internal/index"
	"ghostdb/internal/metrics"
	"ghostdb/internal/obs"
	"ghostdb/internal/query"
	"ghostdb/internal/ram"
	"ghostdb/internal/sched"
	"ghostdb/internal/schema"
	"ghostdb/internal/shard"
	"ghostdb/internal/sqlparse"
	"ghostdb/internal/store"
	"ghostdb/internal/untrusted"
)

// Strategy selects how a Visible selection is combined with Hidden
// computation (§3.3). StratAuto lets the planner decide per predicate.
type Strategy int

const (
	StratAuto Strategy = iota
	// StratPre climbs from the Visible ID list to the anchor through the
	// table's id index, one lookup per id, before any join.
	StratPre
	// StratCrossPre intersects the Visible list with the Hidden
	// selections available at the same level first, then climbs.
	StratCrossPre
	// StratPost builds a Bloom filter over the Visible list and probes
	// the join results; false positives are discarded at projection time.
	StratPost
	// StratCrossPost is StratPost with the Visible list pre-reduced by
	// same-level Hidden selections (smaller, more accurate filter).
	StratCrossPost
	// StratPostSelect performs an exact (chunked in-RAM) selection on the
	// join result instead of a Bloom filter — the strawman of Figure 11.
	StratPostSelect
	// StratCrossPostSelect is StratPostSelect on the cross-reduced list.
	StratCrossPostSelect
	// StratNoFilter postpones the Visible selection entirely to
	// projection time (the fallback when a Bloom filter would admit more
	// false positives than it eliminates, sV > 0.5).
	StratNoFilter
)

func (s Strategy) String() string {
	switch s {
	case StratAuto:
		return "Auto"
	case StratPre:
		return "Pre-Filter"
	case StratCrossPre:
		return "Cross-Pre-Filter"
	case StratPost:
		return "Post-Filter"
	case StratCrossPost:
		return "Cross-Post-Filter"
	case StratPostSelect:
		return "Post-Select"
	case StratCrossPostSelect:
		return "Cross-Post-Select"
	case StratNoFilter:
		return "No-Filter"
	}
	return "?"
}

// Projector selects the projection algorithm (§4, Figures 12–13).
type Projector int

const (
	// ProjectBloom is the paper's Project algorithm: Bloom-filtered
	// σVH lists and batched MJoin passes.
	ProjectBloom Projector = iota
	// ProjectNoBF is Project without the Bloom optimization: irrelevant
	// Visible values are not pre-filtered, inflating MJoin passes.
	ProjectNoBF
	// ProjectBruteForce loads the QEPSJ result in RAM chunks and fetches
	// every attribute value with random flash accesses.
	ProjectBruteForce
)

func (p Projector) String() string {
	switch p {
	case ProjectBloom:
		return "Project"
	case ProjectNoBF:
		return "Project-NoBF"
	case ProjectBruteForce:
		return "Brute-Force"
	}
	return "?"
}

// Version identifies this engine build; it is surfaced as the
// ghostdb_build_info metric, the server's STATS output and the shell
// banner, so a scrape or a session transcript always names the code it
// measured.
const Version = "0.9.0"

// DefaultMaxConcurrentQueries bounds in-flight query sessions when
// Options.MaxConcurrentQueries is unset.
const DefaultMaxConcurrentQueries = 4

// DefaultSLOTarget is the latency objective the rolling SLO window
// scores client-level wall-clock latency against when Options.SLOTarget
// is unset. 25ms of wall time covers the paced bench configurations and
// any unpaced deployment by a wide margin while still catching
// queueing collapse.
const DefaultSLOTarget = 25 * time.Millisecond

// DefaultCompactThreshold is the delta-log page depth that triggers a
// background compaction (Options.CompactThreshold).
const DefaultCompactThreshold = 64

// Options configures a DB.
type Options struct {
	FlashParams    flash.Params
	RAMBudget      int     // secure chip RAM in bytes (default 64KB)
	ThroughputMBps float64 // USB link speed (default 1.5)
	Model          metrics.Model
	// MaxConcurrentQueries bounds the query sessions admitted at once
	// (default DefaultMaxConcurrentQueries; values below 1 mean 1).
	MaxConcurrentQueries int
	// ResultCacheBytes bounds the untrusted-side result cache (0 disables
	// it). Cache memory is host RAM: it is NOT charged against the secure
	// RAMBudget — the cache trades plentiful untrusted memory for scarce
	// secure-token round-trips, and a hit performs zero token work.
	ResultCacheBytes int
	// PageCacheBytes bounds the untrusted-side page cache (0 disables
	// it): a second cache.Cache, one level below the result cache,
	// holding encoded Vis runs keyed on canonical per-table predicate
	// text, paired with token-retained spools so a repeated run ships a
	// fixed header instead of its full payload. Like the result cache it
	// is host RAM, never charged against the secure budget, and leak-free
	// by construction (see internal/cache).
	PageCacheBytes int
	// BusAuditEntries bounds each token bus's payload audit trail: 0 (the
	// default) keeps the full unbounded trail byte-parity tests rely on,
	// n > 0 keeps a ring of the most recent n records, and negative
	// disables payload auditing entirely for long-lived servers and
	// benches (byte counters always keep working).
	BusAuditEntries int
	// Shards is the number of simulated secure tokens (default 1). Each
	// token gets its own flash device, RAM budget, bus and admission
	// scheduler; tables are placed across tokens at schema-tree
	// granularity by internal/shard, so joins never cross tokens and only
	// forest queries (cross products of independent trees) fan out.
	Shards int
	// PaceSimulation > 0 makes every session hold its token's execution
	// slot, after its host work, for SimTime/PaceSimulation of real time
	// on average over the token's statements: each token keeps a pace
	// balance, and a sleep's overshoot (timer slack) is carried as credit
	// that the token's next statements use up, never more than one
	// sleep's overshoot (Token.pace). The simulation itself is pure host
	// CPU, so an unpaced engine's wall-clock throughput measures the
	// host, not the modeled hardware; pacing restores the defining
	// property of the real deployment — each token is a physical device
	// whose I/O takes real time, and independent tokens genuinely
	// overlap it. The open-mix benchmark workload uses this; answers and
	// all simulated counters are unaffected. 0 disables pacing (the
	// default).
	PaceSimulation float64
	// SlowQueryThreshold enables the slow-query log: completed
	// statements (SELECT, UPDATE, DELETE, COMPACT) whose simulated time
	// reaches the threshold are recorded in a ring buffer of canonical
	// query text plus declassified cost scalars (see obs.SlowQuery), the
	// latest obs.DefaultSlowLogEntries of them. 0 disables the log (the
	// default).
	SlowQueryThreshold time.Duration
	// CompactThreshold is the delta-log depth, in flash pages summed
	// over a token's tables, at which a background compaction of that
	// token starts (default DefaultCompactThreshold). Negative disables
	// automatic compaction; DB.Compact still works.
	CompactThreshold int
	// MaxQueueWait enables load shedding: a statement arriving when its
	// token's predicted admission-queue wait exceeds the bound is
	// rejected immediately with ErrOverloaded instead of queueing, so
	// open-loop overload yields bounded latency for admitted queries and
	// an explicit, countable shed signal (ghostdb_shed_total) instead of
	// an unbounded queue. 0 disables shedding (the default). Background
	// compaction is never shed.
	MaxQueueWait time.Duration
	// SLOTarget is the wall-clock latency objective the rolling SLO
	// window scores completed statements against (the /slo endpoint and
	// the ghostdb_slo_attainment gauge). Default DefaultSLOTarget.
	SLOTarget time.Duration
}

// withDefaults fills unset options with Table 1 values.
func (o Options) withDefaults() Options {
	if o.FlashParams.PageSize == 0 {
		o.FlashParams = flash.DefaultParams()
	}
	if o.RAMBudget == 0 {
		o.RAMBudget = ram.DefaultBudget
	}
	if o.ThroughputMBps == 0 {
		o.ThroughputMBps = bus.DefaultThroughputMBps
	}
	if o.Model == (metrics.Model{}) {
		o.Model = metrics.DefaultModel()
	}
	if o.MaxConcurrentQueries == 0 {
		o.MaxConcurrentQueries = DefaultMaxConcurrentQueries
	}
	if o.MaxConcurrentQueries < 1 {
		o.MaxConcurrentQueries = 1
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	if o.CompactThreshold == 0 {
		o.CompactThreshold = DefaultCompactThreshold
	}
	if o.SLOTarget == 0 {
		o.SLOTarget = DefaultSLOTarget
	}
	return o
}

// QueryConfig is one query's immutable execution configuration, the
// only way to configure a query: it travels with the call, so
// concurrent sessions never share a knob. The zero value lets the
// planner decide the strategy, uses the Bloom projector and the default
// RAM admission request.
type QueryConfig struct {
	// Strategy forces the visible/hidden combination strategy for every
	// non-anchor visible table (StratAuto = planner decides).
	Strategy Strategy
	// Projector selects the projection algorithm.
	Projector Projector
	// MinBuffers raises the session's admission floor in whole buffers
	// above the plan's derived minimum (it can never lower it: a grant
	// below the plan floor could die mid-run). 0 means the plan floor
	// alone decides.
	MinBuffers int
	// WantBuffers is the elastic admission target: the session takes up
	// to this many buffers when free. 0 means the plan's want (the whole
	// budget for regular queries, so a lone query behaves exactly like
	// the mono-user engine); cap it to let several sessions hold RAM
	// simultaneously. Values below the plan floor are raised to it.
	WantBuffers int
	// Trace, when non-nil, collects this query's span tree: parse,
	// resolve, plan, admission wait, slot occupancy, per-operator costs,
	// cache lookups and scatter legs (EXPLAIN ANALYZE, /trace). The
	// untraced hot path pays a single nil check and zero allocations.
	Trace *obs.Trace
	// span redirects a fan-out sub-session's spans under its scatter
	// leg instead of the trace root (set by runScatter only).
	span *obs.Span
}

// HiddenImage is the flash-resident image of a table's hidden non-key
// attributes, in ID order ("TiH, the Hidden image of Ti", §4).
//
// The type is hidden data: nothing derived from it — not even its
// cardinality — may reach the untrusted side or an error/log string
// (ghostdb-lint trustboundary).
//
//ghostdb:hidden
type HiddenImage struct {
	Codec  *store.Codec
	File   *store.RowFile
	ColPos map[int]int // table column index -> position within the image
}

// imageColumn reads the span [off, off+w) of every row of a hidden
// image in id order, the overlay's (dl, nil when the table has none or
// the reader does not consult it) for each upserted row: one sequential
// pass through the caller's page buffer that loads each page once and
// transfers only the span of each row, so its reads and bytes depend on
// the image's size and the span's width only. Tombstoned rows are read
// too; callers screen them with dl.Dead.
//
//ghostdb:requires-slot
type imageColumn struct {
	rd     store.ColumnReader
	dl     *delta.Table
	off, w int
}

// initColumn positions c before the image's first row.
func (img *HiddenImage) initColumn(c *imageColumn, dl *delta.Table, off, w int, buf []byte) error {
	*c = imageColumn{dl: dl, off: off, w: w}
	return img.File.InitColumnReader(&c.rd, buf, off, w)
}

// next returns the next row's id and span (valid until the following
// call), or ok=false past the last row.
func (c *imageColumn) next() (id uint32, b []byte, ok bool, err error) {
	b, id, ok, err = c.rd.Next()
	if err != nil || !ok {
		return 0, nil, false, err
	}
	if c.dl != nil {
		if ov, ok := c.dl.Lookup(id); ok {
			b = ov[c.off : c.off+c.w]
		}
	}
	return id, b, true, nil
}

// scan calls fn for every row of the image in id order with the row's
// span [off, off+w) (imageColumn). A non-anchor Scan stage passes its
// predicate's column, compaction the whole row (0, Codec.Width()). b is
// valid until fn returns.
//
//ghostdb:requires-slot
func (img *HiddenImage) scan(dl *delta.Table, off, w int, buf []byte, fn func(id uint32, b []byte) error) error {
	var c imageColumn
	if err := img.initColumn(&c, dl, off, w, buf); err != nil {
		return err
	}
	for {
		id, b, ok, err := c.next()
		if err != nil || !ok {
			return err
		}
		if err := fn(id, b); err != nil {
			return err
		}
	}
}

// row reads row id into rec with the table's delta overlay (dl, nil when
// the table has none or the run does not consult it) substituted when
// the row was upserted: the point read beside scan's sequential pass. rd is the caller's sorted reader
// over File for ascending ids; nil reads the row at random (ReadRow).
//
//ghostdb:requires-slot
func (img *HiddenImage) row(rd *store.SortedReader, dl *delta.Table, id uint32, rec []byte) error {
	var err error
	if rd != nil {
		err = rd.Read(id, rec)
	} else {
		err = img.File.ReadRow(id, rec)
	}
	if err != nil {
		return err
	}
	if dl != nil {
		if ov, ok := dl.Lookup(id); ok {
			copy(rec, ov)
		}
	}
	return nil
}

// DB is a complete GhostDB instance: one or more secure tokens (each a
// flash device + RAM budget + bus + index catalog + hidden images + an
// admission scheduler), the table→token placement, and the untrusted-
// side layers (result cache, aggregate totals) that sit above sharding.
//
// The exported Dev/RAM/Bus/Cat/Untr/Hidden fields alias token 0's
// components: for the default single-token configuration they ARE the
// token, which keeps the mono-token call sites (tests, experiments, the
// shell's audit view) unchanged. Multi-token callers go through Tokens /
// TokenOf instead.
type DB struct {
	Sch  *schema.Schema
	Dev  *flash.Device
	RAM  *ram.Manager
	Bus  *bus.Channel
	Cat  *index.Catalog
	Untr *untrusted.Engine

	Hidden map[int]*HiddenImage
	opts   Options

	tokens []*Token
	place  *shard.Map
	loaded bool

	// cache is the untrusted-side result cache (nil when disabled). It
	// lives outside the secure perimeter: its memory is host RAM, its
	// keys are normalized query text and its values are results the
	// untrusted side has already seen — see internal/cache for the
	// leak-freedom argument. It sits above sharding: invalidation is the
	// per-shard version vector fed by each token's committed updates.
	cache *cache.Cache

	// pages is the untrusted-side page cache (nil when disabled): a
	// second cache.Cache under the result cache, shared by every token's
	// untrusted engine and invalidated by the same per-shard committed-
	// write bumps as the result cache.
	pages *cache.Cache

	// reg/inst/slow are the telemetry layer (internal/obs): the metric
	// registry and its engine instruments always exist and collect
	// (cheap atomics — exposure is opt-in per process), the slow-query
	// log only when Options.SlowQueryThreshold is set.
	reg  *obs.Registry
	inst *instruments
	slow *obs.SlowLog

	// start stamps engine construction, for the process-uptime gauge.
	start time.Time

	// mu guards the client-level cumulative totals (per-token totals
	// live on each Token).
	mu     sync.Mutex
	totals Totals
}

// ColData is one encoded column for loading (Width bytes per row).
type ColData struct {
	Width int
	Data  []byte
}

// TableLoad is the bulk-load image of one table.
type TableLoad struct {
	Rows int
	Cols []ColData        // aligned with the table's Columns
	FKs  map[int][]uint32 // child table index -> referenced id per row
}

// NewDB creates a DB for the schema with the given options: Shards
// simulated secure tokens, with the schema's trees placed across them by
// the planner-floor-weighted policy of internal/shard.
//
//ghostdb:load-phase
func NewDB(sch *schema.Schema, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	db := &DB{
		Sch:   sch,
		opts:  opts,
		start: time.Now(),
	}
	var trees []shard.Tree
	for _, r := range sch.Roots() {
		trees = append(trees, shard.Tree{
			Root:   r,
			Tables: sch.TreeTables(r),
			Weight: treeFloorWeight(sch, r),
		})
	}
	place, err := shard.Place(sch, opts.Shards, trees)
	if err != nil {
		return nil, err
	}
	db.place = place
	for i := 0; i < opts.Shards; i++ {
		dev, err := flash.NewDevice(opts.FlashParams)
		if err != nil {
			return nil, err
		}
		ch := bus.NewChannel(opts.ThroughputMBps)
		tok := &Token{
			id:         i,
			Dev:        dev,
			RAM:        ram.NewManager(opts.RAMBudget, opts.FlashParams.PageSize),
			Bus:        ch,
			Untr:       untrusted.NewEngine(sch, ch),
			Hidden:     make(map[int]*HiddenImage),
			deltas:     make(map[int]*delta.Table),
			deltaReads: make(map[int][2]flashIO),
			deltaSets:  make(map[int][]int),
			insBytes:   make(map[int]int),
			rows:       make(map[int]int),
		}
		tok.sched = sched.New(tok.RAM, opts.MaxConcurrentQueries)
		if opts.MaxQueueWait > 0 {
			tok.sched.SetShedPolicy(opts.MaxQueueWait)
		}
		db.tokens = append(db.tokens, tok)
	}
	// Token 0 aliases (see the DB doc comment).
	t0 := db.tokens[0]
	db.Dev, db.RAM, db.Bus, db.Untr, db.Hidden = t0.Dev, t0.RAM, t0.Bus, t0.Untr, t0.Hidden
	if opts.ResultCacheBytes > 0 {
		db.cache = cache.New(int64(opts.ResultCacheBytes))
	}
	if opts.PageCacheBytes > 0 {
		db.pages = cache.New(int64(opts.PageCacheBytes))
		for _, tok := range db.tokens {
			tok.Untr.SetPageCache(db.pages, tok.id)
		}
	}
	if opts.BusAuditEntries != 0 {
		for _, tok := range db.tokens {
			tok.Bus.SetAuditLimit(opts.BusAuditEntries)
		}
	}
	db.reg = obs.NewRegistry()
	if opts.SlowQueryThreshold > 0 {
		db.slow = obs.NewSlowLog(opts.SlowQueryThreshold, obs.DefaultSlowLogEntries)
	}
	db.inst = newInstruments(db)
	return db, nil
}

// treeFloorWeight is the placement weight of one schema tree: the
// planner's QEPSJ footprint formula applied to the tree's widest plan
// shape (every table projected, every hidden attribute selected). It is
// a pure function of the schema — placement must never depend on data.
func treeFloorWeight(sch *schema.Schema, root int) int {
	tables := sch.TreeTables(root)
	writers := len(tables) // (len-1) column writers + 1 anchor writer
	skt := 0
	if len(tables) > 1 {
		skt = 1
	}
	hidden := 0
	for _, ti := range tables {
		hidden += len(sch.Tables[ti].HiddenColumns())
	}
	return writers + skt + max(hidden, 3)
}

// Tokens returns every secure token, shard order.
func (db *DB) Tokens() []*Token { return slices.Clone(db.tokens) }

// TokenOf returns the token holding a table.
func (db *DB) TokenOf(table int) *Token { return db.tokens[db.place.Of(table)] }

// Placement exposes the table→token map.
func (db *DB) Placement() *shard.Map { return db.place }

// TokenTotals snapshots every token's cumulative costs of metered
// sessions (SELECT, UPDATE, DELETE, COMPACT; INSERT is not metered), in
// shard order. Summed across tokens, the flash and bus counters equal
// what an unsharded engine reports for the same executed work.
func (db *DB) TokenTotals() []Totals {
	out := make([]Totals, len(db.tokens))
	for i, t := range db.tokens {
		out[i] = t.Totals()
	}
	return out
}

// tokenForTables returns the single token holding every listed table, or
// an error naming the split (callers decide whether to fan out instead).
func (db *DB) tokenForTables(tables []int) (*Token, error) {
	tok, ok := db.place.TokenOfAll(tables)
	if !ok {
		return nil, fmt.Errorf("exec: tables span several tokens")
	}
	return db.tokens[tok], nil
}

// Options returns the effective options.
func (db *DB) Options() Options { return db.opts }

// SetThroughput adjusts the modeled link speed of every token's bus
// (Figure 14). Safe under concurrent sessions: the channel knob is
// synchronized, and every query session snapshots the link speed when it
// starts executing, so a running query's reported CommTime never mixes
// two speeds — the new speed applies to sessions that start after the
// call. Prefer setting Options.ThroughputMBps up front when the speed is
// fixed for the run.
func (db *DB) SetThroughput(mbps float64) {
	for _, t := range db.tokens {
		t.Bus.SetThroughput(mbps)
	}
}

// Sched exposes token 0's admission scheduler (diagnostics and tests;
// multi-token callers reach each token's scheduler via TokenOf/Tokens).
func (db *DB) Sched() *sched.Scheduler { return db.tokens[0].sched }

// Rows returns the cardinality of a table (routed to its token).
func (db *DB) Rows(table int) int { return db.TokenOf(table).Rows(table) }

// Load bulk-loads every table onto its placed token: visible columns go
// to the token's untrusted store, hidden columns to hidden images on the
// token's flash, and each token builds the index catalog (SKTs +
// climbing indexes) for the trees it owns. Load runs single-threaded
// before the database accepts queries, outside session admission.
//
//ghostdb:load-phase
func (db *DB) Load(data map[int]*TableLoad) error {
	if db.loaded {
		return errors.New("exec: database already loaded")
	}
	perTok := make([]map[int]*index.TableInput, len(db.tokens))
	for i := range perTok {
		perTok[i] = make(map[int]*index.TableInput)
	}
	for _, t := range db.Sch.Tables {
		ld := data[t.Index]
		if ld == nil {
			return fmt.Errorf("exec: no load data for table %q", t.Name)
		}
		if len(ld.Cols) != len(t.Columns) {
			return fmt.Errorf("exec: table %q: %d columns loaded, schema has %d",
				t.Name, len(ld.Cols), len(t.Columns))
		}
		tok := db.TokenOf(t.Index)
		tok.setRows(t.Index, ld.Rows)
		in := &index.TableInput{Rows: ld.Rows, FKs: ld.FKs}

		// Visible columns -> the token's untrusted store (zero copy).
		for ci, col := range t.Columns {
			c := ld.Cols[ci]
			if col.EncodedWidth() != c.Width {
				return fmt.Errorf("exec: %s.%s width %d != %d", t.Name, col.Name, c.Width, col.EncodedWidth())
			}
			if len(c.Data) != c.Width*ld.Rows {
				return fmt.Errorf("exec: %s.%s has %d bytes, want %d", t.Name, col.Name, len(c.Data), c.Width*ld.Rows)
			}
			if col.Hidden {
				in.Attrs = append(in.Attrs, index.AttrData{ColIdx: ci, Width: c.Width, Data: c.Data})
				continue
			}
			if err := tok.Untr.LoadColumn(t.Index, ci, c.Width, c.Data); err != nil {
				return err
			}
		}
		if err := tok.Untr.SetRows(t.Index, ld.Rows); err != nil {
			return err
		}

		// Hidden image on the token's flash.
		hidden := t.HiddenColumns()
		if len(hidden) > 0 {
			img := &HiddenImage{Codec: store.NewCodec(hidden), ColPos: map[int]int{}}
			pos := 0
			for ci, col := range t.Columns {
				if col.Hidden {
					img.ColPos[ci] = pos
					pos++
				}
			}
			f, err := store.NewRowFile(tok.Dev, img.Codec.Width())
			if err != nil {
				return err
			}
			rec := make([]byte, img.Codec.Width())
			for r := 0; r < ld.Rows; r++ {
				off := 0
				for ci, col := range t.Columns {
					if !col.Hidden {
						continue
					}
					w := col.EncodedWidth()
					copy(rec[off:off+w], ld.Cols[ci].Data[r*w:(r+1)*w])
					off += w
				}
				if err := f.Append(rec); err != nil {
					return err
				}
			}
			if err := f.Seal(); err != nil {
				return err
			}
			img.File = f
			tok.Hidden[t.Index] = img
		}
		perTok[tok.id][t.Index] = in
	}
	for _, tok := range db.tokens {
		if len(perTok[tok.id]) == 0 {
			continue // token with no trees placed on it
		}
		cat, err := index.Build(tok.Dev, db.Sch, perTok[tok.id], index.VariantFull)
		if err != nil {
			return err
		}
		tok.Cat = cat
		// Precompute per-table insert footprints (hidden record + SKT
		// row) while we still legitimately hold the structures: the
		// planner sizes INSERT admission from these without touching
		// hidden images outside the token slot.
		for ti := range perTok[tok.id] {
			bytes := 0
			if img := tok.Hidden[ti]; img != nil {
				bytes += img.Codec.Width()
			}
			if skt, ok := cat.SKTOf(ti); ok {
				bytes += len(skt.Descendants()) * store.IDBytes
			}
			tok.insBytes[ti] = bytes
		}
		// Exclude load/build I/O from query measurements.
		tok.Dev.ResetCounters()
		tok.Bus.ResetCounters()
	}
	db.Cat = db.tokens[0].Cat
	db.loaded = true
	return nil
}

// Stats summarizes the cost of one query under the paper's cost model.
type Stats struct {
	SimTime  time.Duration // IOTime + CommTime
	IOTime   time.Duration
	CommTime time.Duration
	// Ops lists the per-operator costs of the sessions behind these
	// stats (one session, or one per scatter leg), each in the order its
	// collector first completed them: the decomposition of Figures 15–16,
	// the trace's operator spans and the slow log's span summary.
	Ops     []metrics.Op
	Flash   flash.Counters
	BusDown uint64
	BusUp   uint64
	RAMHigh int // high water of the query session's private RAM budget
	// PlanMinBuffers / GrantBuffers record the admission request's floor
	// (the plan-derived minimum, possibly raised by the caller) and the
	// elastic grant the session actually held.
	PlanMinBuffers int
	GrantBuffers   int
	// QueueWait is the wall-clock time the session spent in the FIFO
	// admission queue (a scatter query reports its slowest leg's wait).
	// Wall-clock, not simulated: it measures engine load, not the cost
	// model.
	QueueWait time.Duration
	// Shard is the token the session ran on. For a fan-out query the
	// top-level Stats report Shard -1 and Scatter counts the per-token
	// sub-sessions (each of which merged into its own token's totals).
	Shard     int
	Scatter   int
	Strategy  map[string]Strategy // per visible table
	Projector Projector
	// CacheHit marks an answer served from the untrusted result cache,
	// CacheShared one shared from a concurrent identical query's single
	// admitted session (singleflight). Either way no session ran for this
	// call: every cost field above is zero — a hit performs no flash I/O
	// and moves zero bytes across the secure-token bus.
	CacheHit    bool
	CacheShared bool
}

// Result is a query answer plus its cost statistics. A Result is
// immutable once returned: the engine never touches it again, and
// callers must not modify Columns or Rows in place — the result cache
// shares one materialized Result (shallow copies via Shared) among every
// caller that hits on it.
type Result struct {
	Columns []string
	Rows    []schema.Row
	Stats   Stats

	slack int64 // heap bytes Rows keep alive beyond their own (rowArena.finish)
}

// Totals accumulates the simulated cost of completed statements: the
// client totals book every successful client statement once, a token's
// totals every metered session on it. One statement's Stats are added
// when it finishes, so the aggregate view stays consistent under
// concurrency.
type Totals struct {
	Queries  uint64
	SimTime  time.Duration
	IOTime   time.Duration
	CommTime time.Duration
	Flash    flash.Counters
	BusDown  uint64
	BusUp    uint64
	// CacheHits / CacheShared count queries answered without any secure
	// execution (result-cache hit, or a result shared by singleflight
	// from a concurrent identical query). They are included in Queries
	// but contribute zero to every cost counter — the difference is the
	// saving the cache benchmarks attribute.
	CacheHits   uint64
	CacheShared uint64
}

// add books one statement's Stats.
func (t *Totals) add(st Stats) {
	t.Queries++
	t.SimTime += st.SimTime
	t.IOTime += st.IOTime
	t.CommTime += st.CommTime
	t.Flash = t.Flash.Add(st.Flash)
	t.BusDown += st.BusDown
	t.BusUp += st.BusUp
	if st.CacheHit {
		t.CacheHits++
	}
	if st.CacheShared {
		t.CacheShared++
	}
}

// Totals returns a snapshot of the cumulative costs of every successful
// client statement (SELECT, UPDATE, DELETE, INSERT; cache hits included).
func (db *DB) Totals() Totals {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.totals
}

// Run parses and executes one SQL statement under the zero QueryConfig
// (the mono-user entry point; safe to call concurrently).
func (db *DB) Run(sql string) (*Result, error) {
	return db.RunCtx(context.Background(), sql, QueryConfig{})
}

// Stmt is a prepared statement: the parsed, resolved and planned form of
// one SQL statement. Prepare and RunCtx share one preparation path, so
// the plan a caller inspects is exactly the plan admission will use. A Stmt is safe for concurrent RunCtx calls with the
// configuration it was prepared under.
type Stmt struct {
	db   *DB
	sel  *query.Query // nil for INSERT; an UPDATE/DELETE's WHERE (whereQuery)
	ins  *sqlparse.Insert
	dml  *query.DML // resolved UPDATE/DELETE
	cfg  QueryConfig
	plan *Plan // nil for a SELECT that plans on its run (DB.RunCtx)
}

// Prepare parses, resolves and plans one SQL statement without admitting
// or executing anything: per-table strategies are chosen from plan-time
// selectivity counts, and the plan's true minimum RAM footprint is
// derived so admission can be sized from it.
func (db *DB) Prepare(sql string, cfg QueryConfig) (*Stmt, error) {
	return db.prepare(sql, cfg, true)
}

// prepare parses and resolves one statement, each under its trace span,
// and plans it. A SELECT is planned only when planSelect is set: RunCtx
// leaves it to the run, so with the result cache on a hit pays only
// parse, resolve and the key derivation — no plan-time selectivity
// scans and no token work.
func (db *DB) prepare(sql string, cfg QueryConfig, planSelect bool) (*Stmt, error) {
	if !db.loaded {
		return nil, errors.New("exec: database not loaded")
	}
	parseSp := cfg.Trace.Root().Start("parse")
	stmt, err := sqlparse.Parse(sql)
	parseSp.End()
	if err != nil {
		return nil, err
	}
	switch st := stmt.(type) {
	case *sqlparse.Select:
		resolveSp := cfg.Trace.Root().Start("resolve")
		q, err := query.Resolve(db.Sch, st, sql)
		resolveSp.End()
		if err != nil {
			return nil, err
		}
		ps := &Stmt{db: db, sel: q, cfg: cfg}
		if planSelect {
			if ps.plan, err = db.planSelect(q, cfg, nil); err != nil {
				return nil, err
			}
		}
		return ps, nil
	case sqlparse.Insert:
		p, err := db.planInsert(st)
		if err != nil {
			return nil, err
		}
		ins := st
		return &Stmt{db: db, ins: &ins, cfg: cfg, plan: p}, nil
	case *sqlparse.Update, *sqlparse.Delete:
		resolveSp := cfg.Trace.Root().Start("resolve")
		var d *query.DML
		if upd, ok := st.(*sqlparse.Update); ok {
			d, err = query.ResolveUpdate(db.Sch, upd, sql)
		} else {
			d, err = query.ResolveDelete(db.Sch, st.(*sqlparse.Delete), sql)
		}
		resolveSp.End()
		if err != nil {
			return nil, err
		}
		q := whereQuery(d)
		p, err := db.planSelect(q, cfg, d)
		if err != nil {
			return nil, err
		}
		return &Stmt{db: db, sel: q, dml: d, cfg: cfg, plan: p}, nil
	case sqlparse.CreateTable:
		return nil, errors.New("exec: schema is fixed at load time; CREATE TABLE goes through ghostdb.Create")
	}
	return nil, fmt.Errorf("exec: unsupported statement %T", stmt)
}

// planSelect plans a resolved SELECT, or the WHERE clause of the
// UPDATE/DELETE d, under a "plan" span.
func (db *DB) planSelect(q *query.Query, cfg QueryConfig, d *query.DML) (*Plan, error) {
	sp := cfg.Trace.Root().Start("plan")
	p, err := db.planQuery(q, cfg, d)
	sp.End()
	return p, err
}

// Plan returns the statement's execution plan.
func (s *Stmt) Plan() *Plan { return s.plan }

// RunCtx executes the prepared statement as one client statement.
// Admission is sized from the plan's derived floor (raised, never
// lowered, by cfg.MinBuffers); a configuration whose strategy or
// projector differs from the prepared one replans for this run, since
// those knobs change the plan itself.
func (s *Stmt) RunCtx(ctx context.Context, cfg QueryConfig) (*Result, error) {
	return s.db.client(func() (*Result, error) { return s.run(ctx, cfg) })
}

// RunCtx parses, plans and executes one SQL statement with a per-query
// configuration (prepare-then-run). The call blocks in the FIFO
// admission queue until the plan's RAM floor and a concurrency slot are
// free; cancelling ctx while queued abandons the request without having
// reserved anything. Once execution has started it runs to completion
// (the simulated hardware is synchronous).
func (db *DB) RunCtx(ctx context.Context, sql string, cfg QueryConfig) (*Result, error) {
	return db.client(func() (*Result, error) {
		ps, err := db.prepare(sql, cfg, false)
		if err != nil {
			return nil, err
		}
		return ps.run(ctx, cfg)
	})
}

// client is the one client step behind DB.RunCtx and Stmt.RunCtx: the
// call counts as in flight until it returns, a success lands its
// wall-clock latency — queue wait, slot time and pacing included — in
// the rolling window behind /slo and ghostdb_slo_attainment, and a
// failure of any stage counts once in ghostdb_query_errors_total.
func (db *DB) client(call func() (*Result, error)) (*Result, error) {
	db.inst.inFlight.Add(1)
	start := time.Now()
	res, err := call()
	db.inst.inFlight.Add(-1)
	if err != nil {
		db.inst.queryErrs.Inc()
		return nil, err
	}
	db.inst.wallWin.Observe(time.Since(start).Seconds())
	return res, nil
}

// run executes the statement once and books a success once: its Stats
// join the client totals, the simulated-latency histogram and, past its
// threshold, the slow log. A cache hit is booked with its zero cost.
func (s *Stmt) run(ctx context.Context, cfg QueryConfig) (*Result, error) {
	db := s.db
	var res *Result
	var err error
	kind := "SELECT"
	switch {
	case s.ins != nil:
		kind = "INSERT"
		res, err = db.runInsert(ctx, *s.ins, s.plan, cfg)
	case s.dml != nil:
		kind = "UPDATE"
		if s.dml.Delete {
			kind = "DELETE"
		}
		if res, err = db.runSelectOn(ctx, s.sel, s.plan, cfg); err == nil {
			db.maybeCompact(s.plan.tok)
		}
	default:
		res, err = s.runSelect(ctx, cfg)
	}
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	db.totals.add(res.Stats)
	db.mu.Unlock()
	db.observeStatement(kind, s.canonical, res.Stats)
	return res, nil
}

// canonical renders the statement's slow-log text: a SELECT's resolved
// canonical form, else what its plan carries (a DML statement's
// canonical form, an INSERT's target table).
func (s *Stmt) canonical() string {
	if s.sel != nil && s.dml == nil {
		return s.sel.Canonical()
	}
	return s.plan.SQL
}

// runSelect answers the SELECT: through the result cache when it is on,
// else by executing it directly.
func (s *Stmt) runSelect(ctx context.Context, cfg QueryConfig) (*Result, error) {
	db, q, plan := s.db, s.sel, s.plan
	if cfg.Strategy != s.cfg.Strategy || cfg.Projector != s.cfg.Projector {
		plan = nil // those knobs change the plan itself: replan for this run
	}
	if db.cache == nil {
		return db.execSelect(ctx, q, plan, cfg)
	}
	return db.cachedSelect(ctx, q, cfg, func() (*Result, error) {
		return db.execSelect(ctx, q, plan, cfg)
	})
}

// execSelect plans q when plan is nil, then runs it. Single-token plans
// run as one scheduled session on their token: FIFO RAM admission sized
// from the plan's floor, operator variants bound from the actual grant,
// then exclusive use of that token while the query runs, so per-query
// counters and simulated timings are deterministic. Cross-token plans
// fan out (runScatter).
func (db *DB) execSelect(ctx context.Context, q *query.Query, plan *Plan, cfg QueryConfig) (*Result, error) {
	if plan == nil {
		var err error
		if plan, err = db.planSelect(q, cfg, nil); err != nil {
			return nil, err
		}
	}
	if len(plan.Parts) > 0 {
		return db.runScatter(ctx, q, plan, cfg)
	}
	return db.runSelectOn(ctx, q, plan, cfg)
}

// runInsert executes an INSERT as a minimal session on the token owning
// the target table, sized from the insert's planned footprint. Updates
// mutate shared structures (hidden images, indexes, row counts), so they
// hold that token's slot — inserts into tables on *different* tokens
// proceed in parallel (the write-through fan-out of a sharded load).
// An INSERT is admitted like every statement but not metered: it uploads
// nothing, returns zero Stats (the client totals count it at that cost)
// and books nothing into the token's totals, and its I/O stays on the
// token's counters until the next metered session zeroes them.
func (db *DB) runInsert(ctx context.Context, ins sqlparse.Insert, plan *Plan, cfg QueryConfig) (*Result, error) {
	s, err := db.admit(ctx, plan.tok, sched.Request{
		MinBuffers: plan.MinBuffers, WantBuffers: plan.WantBuffers}, cfg.traceParent())
	if err != nil {
		return nil, err
	}
	defer s.end()
	err = s.sess.Exclusive(ctx, func() error {
		// Stage the insert's working set (hidden record + SKT row) in the
		// session's private budget, so the accounting matches the plan.
		g, err := s.sess.RAM().AllocBuffers(plan.MinBuffers)
		if err != nil {
			return err
		}
		defer g.Release()
		return db.insertOn(plan.tok, ins)
	})
	if err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// sessionRequest derives the admission request from the plan floor and
// the per-query configuration. cfg can raise the floor or cap the want,
// but never push the grant below what the plan needs to finish. An
// UPDATE/DELETE asks for exactly its plan's floor whatever cfg says
// (planQuery).
func (db *DB) sessionRequest(plan *Plan, cfg QueryConfig) sched.Request {
	if plan.DML {
		return sched.Request{MinBuffers: plan.MinBuffers, WantBuffers: plan.WantBuffers}
	}
	min := plan.MinBuffers
	if cfg.MinBuffers > min {
		min = cfg.MinBuffers
	}
	want := cfg.WantBuffers
	if want <= 0 {
		want = plan.WantBuffers
	}
	if want < min {
		want = min
	}
	return sched.Request{MinBuffers: min, WantBuffers: want}
}

// runSelectOn runs one single-token plan as a session on its token
// (whose totals meter books); the client totals are Stmt.run's. It is
// also the session step of an UPDATE/DELETE, whose plan is the query of
// its WHERE clause and whose result is the affected-row count.
func (db *DB) runSelectOn(ctx context.Context, q *query.Query, plan *Plan, cfg QueryConfig) (*Result, error) {
	s, err := db.admit(ctx, plan.tok, db.sessionRequest(plan, cfg), cfg.traceParent())
	if err != nil {
		return nil, err
	}
	defer s.end()
	var res *Result
	err = s.sess.Exclusive(ctx, func() error {
		r := &queryRun{
			db:         db,
			tok:        plan.tok,
			q:          q,
			cfg:        cfg,
			plan:       plan,
			strategies: plan.Strategies(),
			ram:        s.sess.RAM(),
		}
		st, err := s.meter(q.SQL, func(col *metrics.Collector) error {
			r.col = col
			out, err := r.execute()
			if err != nil {
				return err
			}
			if q.CountOnly && !plan.countsAtMerge() {
				out = countResult(len(out.Rows))
			}
			res = out
			return nil
		})
		if err != nil {
			return err
		}
		st.Strategy = map[string]Strategy{}
		for ti, strat := range r.strategies {
			st.Strategy[db.Sch.Tables[ti].Name] = strat
		}
		st.Projector = cfg.Projector
		res.Stats = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// countResult is a COUNT(*)'s answer: one row holding n.
func countResult(n int) *Result {
	return &Result{Columns: []string{"count(*)"}, Rows: []schema.Row{{schema.IntVal(int64(n))}}}
}

// columnLabel renders a projection header.
func (db *DB) columnLabel(p query.Proj) string {
	t := db.Sch.Tables[p.Table]
	if p.ColIdx == query.IDCol {
		return t.Name + ".id"
	}
	return t.Name + "." + t.Columns[p.ColIdx].Name
}
