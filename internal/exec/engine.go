package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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
	Variant        index.Variant
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
	// PaceSimulation > 0 makes every query session sleep
	// SimTime/PaceSimulation of real time while it holds its token's
	// execution slot. The simulation itself is pure host CPU, so an
	// unpaced engine's wall-clock throughput measures the host, not the
	// modeled hardware; pacing restores the defining property of the
	// real deployment — each token is a physical device whose I/O takes
	// real time, and independent tokens genuinely overlap it. The
	// open-mix benchmark workload uses this; answers and all simulated
	// counters are unaffected. 0 disables pacing (the default).
	PaceSimulation float64
	// SlowQueryThreshold enables the slow-query log: completed SELECTs
	// whose simulated time reaches the threshold are recorded in a ring
	// buffer of canonical query text plus declassified cost scalars
	// (see obs.SlowQuery). 0 disables the log (the default).
	SlowQueryThreshold time.Duration
	// SlowLogEntries caps the slow-query ring buffer (default
	// obs.DefaultSlowLogEntries).
	SlowLogEntries int
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

	// prefetchInflight gauges flash pages staged by read-ahead windows
	// but not yet consumed, summed over every live scan (the
	// ghostdb_prefetch_inflight metric).
	prefetchInflight atomic.Int64

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
			id:       i,
			Dev:      dev,
			RAM:      ram.NewManager(opts.RAMBudget, opts.FlashParams.PageSize),
			Bus:      ch,
			Untr:     untrusted.NewEngine(sch, ch),
			Hidden:   make(map[int]*HiddenImage),
			deltas:   make(map[int]*delta.Table),
			insBytes: make(map[int]int),
			rows:     make(map[int]int),
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
		db.slow = obs.NewSlowLog(opts.SlowQueryThreshold, opts.SlowLogEntries)
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
	return writers + skt + maxInt(hidden, 3)
}

// Tokens returns every secure token as a read-only Unit, shard order.
func (db *DB) Tokens() []Unit {
	out := make([]Unit, len(db.tokens))
	for i, t := range db.tokens {
		out[i] = t
	}
	return out
}

// TokenOf returns the token holding a table.
func (db *DB) TokenOf(table int) *Token { return db.tokens[db.place.Of(table)] }

// Placement exposes the table→token map.
func (db *DB) Placement() *shard.Map { return db.place }

// TokenTotals snapshots every token's cumulative session costs, shard
// order. Summed across tokens, the flash and bus counters equal what an
// unsharded engine reports for the same executed work.
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
		cat, err := index.Build(tok.Dev, db.Sch, perTok[tok.id], db.opts.Variant)
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
	SimTime   time.Duration // IOTime + CommTime
	IOTime    time.Duration
	CommTime  time.Duration
	Breakdown map[string]time.Duration // per-operator I/O time (Figs 15-16)
	Flash     flash.Counters
	BusDown   uint64
	BusUp     uint64
	RAMHigh   int // high water of the query session's private RAM budget
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

	// ops lists the cost spans of the sessions behind these stats (one
	// session, or one per scatter leg), each in the order its collector
	// first completed them. The slow-query log sums their full simulated
	// durations by name (opSims); Breakdown above stays the exported
	// I/O-only decomposition of Figures 15–16.
	ops []opCost
}

// opCost is one cost span of a session: its counters and its full
// simulated duration (I/O plus communication).
type opCost struct {
	name   string
	sample metrics.Sample
	sim    time.Duration
}

// opCosts copies a quiesced collector's spans.
func opCosts(col *metrics.Collector) []opCost {
	names := col.Names()
	out := make([]opCost, len(names))
	for i, name := range names {
		out[i] = opCost{name: name, sample: col.SampleOf(name), sim: col.SimTimeOf(name)}
	}
	return out
}

// opSims sums the cost spans' simulated durations by name.
func (st *Stats) opSims() map[string]time.Duration {
	out := make(map[string]time.Duration, len(st.ops))
	for _, op := range st.ops {
		out[op.name] += op.sim
	}
	return out
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

// Totals accumulates the simulated cost of every completed query; one
// query's Stats are merged in when it finishes, so the aggregate view
// stays consistent under concurrency.
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

// Totals returns a snapshot of the cumulative query costs.
func (db *DB) Totals() Totals {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.totals
}

func (db *DB) mergeTotals(st Stats) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.totals.Queries++
	db.totals.SimTime += st.SimTime
	db.totals.IOTime += st.IOTime
	db.totals.CommTime += st.CommTime
	db.totals.Flash = db.totals.Flash.Add(st.Flash)
	db.totals.BusDown += st.BusDown
	db.totals.BusUp += st.BusUp
}

// Run parses and executes one SQL statement under the zero QueryConfig
// (the mono-user entry point; safe to call concurrently).
func (db *DB) Run(sql string) (*Result, error) {
	return db.RunCtx(context.Background(), sql, QueryConfig{})
}

// Stmt is a prepared statement: the parsed, resolved and planned form of
// one SQL statement. Prepare is the single planning path — Run, RunCtx
// and SelectCtx all go through it — so the plan a caller inspects is
// exactly the plan admission will use. A Stmt is safe for concurrent
// RunCtx calls with the configuration it was prepared under.
type Stmt struct {
	db   *DB
	sel  *query.Query // nil for INSERT/UPDATE/DELETE
	ins  *sqlparse.Insert
	dml  *query.DML // resolved UPDATE/DELETE
	cfg  QueryConfig
	plan *Plan
	key  string // result-cache key ("" when the cache is disabled)
}

// Prepare parses, resolves and plans one SQL statement without admitting
// or executing anything: per-table strategies are chosen from plan-time
// selectivity counts, and the plan's true minimum RAM footprint is
// derived so admission can be sized from it.
func (db *DB) Prepare(sql string, cfg QueryConfig) (*Stmt, error) {
	if !db.loaded {
		return nil, errors.New("exec: database not loaded")
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.prepareParsed(stmt, sql, cfg)
}

// prepareParsed is Prepare after parsing, so callers that already hold
// the AST (RunCtx) do not parse twice.
func (db *DB) prepareParsed(stmt sqlparse.Statement, sql string, cfg QueryConfig) (*Stmt, error) {
	switch st := stmt.(type) {
	case *sqlparse.Select:
		resolveSp := cfg.Trace.Root().Start("resolve")
		q, err := query.Resolve(db.Sch, st, sql)
		resolveSp.End()
		if err != nil {
			return nil, err
		}
		planSp := cfg.Trace.Root().Start("plan")
		p, err := db.PlanQuery(q, cfg)
		planSp.End()
		if err != nil {
			return nil, err
		}
		ps := &Stmt{db: db, sel: q, cfg: cfg, plan: p}
		if db.cache != nil {
			ps.key = cacheKey(q, cfg)
		}
		return ps, nil
	case sqlparse.Insert:
		p, err := db.planInsert(st)
		if err != nil {
			return nil, err
		}
		ins := st
		return &Stmt{db: db, ins: &ins, cfg: cfg, plan: p}, nil
	case *sqlparse.Update:
		resolveSp := cfg.Trace.Root().Start("resolve")
		d, err := query.ResolveUpdate(db.Sch, st, sql)
		resolveSp.End()
		if err != nil {
			return nil, err
		}
		p, err := db.planDML(d)
		if err != nil {
			return nil, err
		}
		return &Stmt{db: db, dml: d, cfg: cfg, plan: p}, nil
	case *sqlparse.Delete:
		resolveSp := cfg.Trace.Root().Start("resolve")
		d, err := query.ResolveDelete(db.Sch, st, sql)
		resolveSp.End()
		if err != nil {
			return nil, err
		}
		p, err := db.planDML(d)
		if err != nil {
			return nil, err
		}
		return &Stmt{db: db, dml: d, cfg: cfg, plan: p}, nil
	case sqlparse.CreateTable:
		return nil, errors.New("exec: schema is fixed at load time; CREATE TABLE goes through ghostdb.Create")
	}
	return nil, fmt.Errorf("exec: unsupported statement %T", stmt)
}

// Plan returns the statement's execution plan.
func (s *Stmt) Plan() *Plan { return s.plan }

// RunCtx executes the prepared statement. Admission is sized from the
// plan's derived floor (raised, never lowered, by cfg.MinBuffers); a
// configuration whose strategy or projector differs from the prepared
// one replans first, since those knobs change the plan itself.
func (s *Stmt) RunCtx(ctx context.Context, cfg QueryConfig) (*Result, error) {
	if s.ins != nil {
		return s.db.runInsert(ctx, *s.ins, s.plan, cfg)
	}
	if s.dml != nil {
		return s.db.runDML(ctx, s.dml, s.plan, cfg)
	}
	plan, key := s.plan, s.key
	if cfg.Strategy != s.cfg.Strategy || cfg.Projector != s.cfg.Projector {
		p, err := s.db.PlanQuery(s.sel, cfg)
		if err != nil {
			return nil, err
		}
		plan = p
		if s.db.cache != nil {
			key = cacheKey(s.sel, cfg)
		}
	}
	if s.db.cache != nil {
		return s.db.runSelectCached(ctx, s.sel, plan, cfg, key)
	}
	return s.db.runSelect(ctx, s.sel, plan, cfg)
}

// RunCtx parses, plans and executes one SQL statement with a per-query
// configuration (prepare-then-run). The call blocks in the FIFO
// admission queue until the plan's RAM floor and a concurrency slot are
// free; cancelling ctx while queued abandons the request without having
// reserved anything. Once execution has started it runs to completion
// (the simulated hardware is synchronous).
//
// With the result cache enabled, SELECTs consult it before planning:
// a hit pays only parse+resolve (the key derivation) — no plan-time
// selectivity scans and no token work.
func (db *DB) RunCtx(ctx context.Context, sql string, cfg QueryConfig) (*Result, error) {
	if !db.loaded {
		return nil, errors.New("exec: database not loaded")
	}
	// Client-level SLO bookkeeping: every statement entering here counts
	// as in flight, and every success lands its wall-clock latency —
	// queue wait, slot time and pacing included — in the rolling window
	// behind /slo and ghostdb_slo_attainment.
	db.inst.inFlight.Add(1)
	start := time.Now()
	res, err := db.runStatement(ctx, sql, cfg)
	db.inst.inFlight.Add(-1)
	if err == nil {
		db.inst.wallWin.Observe(time.Since(start).Seconds())
	}
	return res, err
}

// runStatement is RunCtx minus the client-level instrumentation.
func (db *DB) runStatement(ctx context.Context, sql string, cfg QueryConfig) (*Result, error) {
	parseSp := cfg.Trace.Root().Start("parse")
	stmt, err := sqlparse.Parse(sql)
	parseSp.End()
	if err != nil {
		return nil, err
	}
	if sel, ok := stmt.(*sqlparse.Select); ok && db.cache != nil {
		return db.runCachedSelect(ctx, sel, sql, cfg)
	}
	ps, err := db.prepareParsed(stmt, sql, cfg)
	if err != nil {
		return nil, err
	}
	return ps.RunCtx(ctx, cfg)
}

// runInsert executes an INSERT as a minimal session on the token owning
// the target table, sized from the insert's planned footprint. Updates
// mutate shared structures (hidden images, indexes, row counts), so they
// hold that token's slot — inserts into tables on *different* tokens
// proceed in parallel (the write-through fan-out of a sharded load).
func (db *DB) runInsert(ctx context.Context, ins sqlparse.Insert, plan *Plan, cfg QueryConfig) (*Result, error) {
	tok := plan.tok
	parent := cfg.traceParent()
	admSp := parent.Start("admission")
	sess, err := tok.sched.Acquire(ctx, sched.Request{
		MinBuffers: plan.MinBuffers, WantBuffers: plan.WantBuffers})
	admSp.End()
	if err != nil {
		db.noteAdmissionErr(tok, err)
		db.inst.queryErrs.Inc()
		return nil, wrapAdmission(err)
	}
	defer sess.Release()
	execSp := parent.Start("exec")
	execSp.SetNote(fmt.Sprintf("token %d, grant %d buffers", tok.id, sess.Buffers()))
	defer execSp.End()
	err = sess.Exclusive(ctx, func() error {
		slotStart := time.Now()
		defer func() {
			db.inst.slotOcc[tok.id].Observe(time.Since(slotStart).Seconds())
		}()
		// Stage the insert's working set (hidden record + SKT row) in the
		// session's private budget, so the accounting matches the plan.
		g, err := sess.RAM().AllocBuffers(plan.MinBuffers)
		if err != nil {
			return err
		}
		defer g.Release()
		return db.insertOn(tok, ins)
	})
	if err != nil {
		db.inst.queryErrs.Inc()
		return nil, err
	}
	return &Result{}, nil
}

// sessionRequest derives the admission request from the plan floor and
// the per-query configuration. cfg can raise the floor or cap the want,
// but never push the grant below what the plan needs to finish.
func (db *DB) sessionRequest(plan *Plan, cfg QueryConfig) sched.Request {
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

// wrapAdmission tags never-admissible scheduler rejections with
// ErrBudgetTooSmall so callers can tell a clean up-front denial from a
// mid-run exhaustion.
func wrapAdmission(err error) error {
	if errors.Is(err, sched.ErrNeverAdmissible) {
		return fmt.Errorf("%w: %w", ErrBudgetTooSmall, err)
	}
	return err
}

// Select executes a resolved query under the zero QueryConfig.
func (db *DB) Select(q *query.Query) (*Result, error) {
	return db.SelectCtx(context.Background(), q, QueryConfig{})
}

// SelectCtx plans and executes a resolved query (prepare-then-run for
// callers that resolved the SQL themselves).
func (db *DB) SelectCtx(ctx context.Context, q *query.Query, cfg QueryConfig) (*Result, error) {
	plan, err := db.PlanQuery(q, cfg)
	if err != nil {
		return nil, err
	}
	return db.runSelect(ctx, q, plan, cfg)
}

// runSelect executes a planned query. Single-token plans run as one
// scheduled session on their token: FIFO RAM admission sized from the
// plan's floor, operator variants bound from the actual grant, then
// exclusive use of that token while the query runs, so per-query
// counters and simulated timings are deterministic. Cross-token plans
// fan out (runScatter).
func (db *DB) runSelect(ctx context.Context, q *query.Query, plan *Plan, cfg QueryConfig) (*Result, error) {
	if len(plan.Parts) > 0 {
		return db.runScatter(ctx, q, plan, cfg)
	}
	res, err := db.runSelectOn(ctx, q, plan, cfg)
	if err != nil {
		db.inst.queryErrs.Inc()
		return nil, err
	}
	db.mergeTotals(res.Stats)
	db.observeSelect(q, res.Stats)
	return res, nil
}

// runSelectOn runs one single-token plan as a session on its token and
// merges the session's cost into that token's totals (but not into the
// DB-level client totals — the caller does that once per client query).
func (db *DB) runSelectOn(ctx context.Context, q *query.Query, plan *Plan, cfg QueryConfig) (*Result, error) {
	tok := plan.tok
	req := db.sessionRequest(plan, cfg)
	parent := cfg.traceParent()
	admSp := parent.Start("admission")
	queued := time.Now()
	sess, err := tok.sched.Acquire(ctx, req)
	admSp.End()
	if err != nil {
		db.noteAdmissionErr(tok, err)
		return nil, wrapAdmission(err)
	}
	wait := time.Since(queued)
	defer sess.Release()
	execSp := parent.Start("exec")
	execSp.SetNote(fmt.Sprintf("token %d, grant %d buffers", tok.id, sess.Buffers()))
	defer execSp.End()
	var res *Result
	err = sess.Exclusive(ctx, func() error {
		slotStart := time.Now()
		defer func() {
			db.inst.slotOcc[tok.id].Observe(time.Since(slotStart).Seconds())
		}()
		r := &queryRun{
			db:         db,
			tok:        tok,
			q:          q,
			cfg:        cfg,
			plan:       plan,
			bind:       plan.Bind(sess.Buffers()),
			planMin:    req.MinBuffers,
			strategies: plan.Strategies(),
			ram:        sess.RAM(),
			// The collector snapshots the link speed at construction:
			// SetThroughput calls during the run apply to later sessions
			// only, so this query's CommTime is computed against one
			// consistent speed.
			col: metrics.NewCollector(tok.Dev, tok.Bus, db.opts.Model),
		}
		// The token is exclusively ours: zero the device/bus counters so
		// the collector's spans see only this query's I/O.
		r.col.Reset()
		// The query text is the only thing that ever leaves the secure
		// perimeter (§1: "the only information revealed to a potential
		// spy is which queries you pose"). Its upload is metered under
		// its own cost span so the trace decomposition covers it.
		if err := r.col.Span(spanBus, func() error {
			return tok.Bus.Transfer(bus.Up, "query", len(q.SQL), q.SQL)
		}); err != nil {
			return err
		}
		out, err := r.execute()
		if err != nil {
			return err
		}
		if q.CountOnly {
			out = &Result{
				Columns: []string{"count(*)"},
				Rows:    []schema.Row{{schema.IntVal(int64(len(out.Rows)))}},
			}
		}
		out.Stats = r.collectStats()
		out.Stats.QueueWait = wait
		attachOperatorSpans(execSp, r.col, out.Stats.SimTime)
		res = out
		// Paced mode: hold the token slot for a real-time shadow of the
		// simulated cost, so wall-clock measurements see device-bound
		// (not host-CPU-bound) behavior. See Options.PaceSimulation.
		if pace := db.opts.PaceSimulation; pace > 0 {
			paceSp := execSp.Start("pace")
			time.Sleep(time.Duration(float64(out.Stats.SimTime) / pace))
			paceSp.End()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tok.mergeTotals(res.Stats)
	return res, nil
}

// collectStats summarizes this query's cost from the counters the run
// observed while it held its token.
func (r *queryRun) collectStats() Stats {
	db, tok := r.db, r.tok
	down, up := tok.Bus.Counters()
	total := metrics.Sample{Flash: tok.Dev.Counters(), BusDown: down, BusUp: up}
	st := Stats{
		IOTime:         db.opts.Model.IOTime(total),
		CommTime:       db.opts.Model.CommTime(total, r.col.ThroughputMBps()),
		Breakdown:      r.col.Breakdown(),
		Flash:          tok.Dev.Counters(),
		BusDown:        down,
		BusUp:          up,
		RAMHigh:        r.ram.HighWater(),
		PlanMinBuffers: r.planMin,
		GrantBuffers:   r.bind.GrantBuffers,
		Shard:          tok.id,
		Strategy:       map[string]Strategy{},
		Projector:      r.cfg.Projector,
		ops:            opCosts(r.col),
	}
	st.SimTime = st.IOTime + st.CommTime
	for ti, s := range r.strategies {
		st.Strategy[db.Sch.Tables[ti].Name] = s
	}
	return st
}

// columnLabel renders a projection header.
func (db *DB) columnLabel(p query.Proj) string {
	t := db.Sch.Tables[p.Table]
	if p.ColIdx == query.IDCol {
		return t.Name + ".id"
	}
	return t.Name + "." + t.Columns[p.ColIdx].Name
}
