// Package ghostdb is a faithful reimplementation of GhostDB (Anciaux,
// Benzine, Bouganim, Pucheral, Shasha — SIGMOD 2007): a database that
// splits every table between an Untrusted computer (Visible columns) and
// a simulated Secure USB key (Hidden columns), and evaluates standard SQL
// select-project-join queries so that hidden data never leaves the secure
// perimeter — the only information an observer learns is the query text.
//
// The embedded secure token is simulated I/O-accurately, in the same
// spirit as the paper's own evaluation platform: a NAND flash device with
// an FTL (25µs page reads, 200µs page writes, 50ns/byte transfers), a
// 64KB RAM budget and a throughput-limited USB link. Query costs are
// reported as simulated time derived from those counters.
//
// Quick start:
//
//	db, _ := ghostdb.Create([]string{
//	    `CREATE TABLE Patients (id int, name char(20) HIDDEN, age int)`,
//	}, ghostdb.Options{})
//	ld := db.Loader()
//	ld.Append("Patients", ghostdb.R{"name": "Dupont", "age": 52})
//	ld.Commit()
//	res, _ := db.Query(`SELECT id, name FROM Patients WHERE age = 52`)
package ghostdb

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"ghostdb/internal/cache"
	"ghostdb/internal/exec"
	"ghostdb/internal/flash"
	"ghostdb/internal/obs"
	"ghostdb/internal/schema"
	"ghostdb/internal/sqlparse"
)

// Re-exported value types. Values returned by queries are of type Value;
// construct them with IntVal, FloatVal and CharVal when needed.
type (
	// Value is a dynamically typed column value.
	Value = schema.Value
	// Row is one result tuple.
	Row = schema.Row
	// Stats reports the simulated cost of a query.
	Stats = exec.Stats
	// Result is a query answer: column labels, rows and cost statistics.
	Result = exec.Result
	// Strategy selects the visible/hidden combination strategy (§3.3).
	Strategy = exec.Strategy
	// Projector selects the projection algorithm (§4).
	Projector = exec.Projector
	// Plan is the inspectable product of Prepare: per-table strategies,
	// the projector, the derived minimum RAM footprint that admission
	// will request, and an estimated cost.
	Plan = exec.Plan
	// TablePlan is one table's entry in a Plan.
	TablePlan = exec.TablePlan
	// CacheStats reports the result cache's counters (db.CacheStats).
	CacheStats = cache.Stats
	// Trace is a per-query span tree (attach with WithTrace, render with
	// Trace.JSON). Every value in it is declassified by construction:
	// simulated durations from the metered cost model, wall-clock
	// scheduling waits, and canonical query text.
	Trace = obs.Trace
	// TraceSpan is the JSON form of one trace span (Trace.Snapshot).
	TraceSpan = obs.SpanJSON
	// Metrics is the engine's counter/gauge/histogram registry
	// (db.Metrics); render with WritePrometheus.
	Metrics = obs.Registry
	// SlowQuery is one slow-query log entry (db.SlowLog().Entries()).
	SlowQuery = obs.SlowQuery
	// SlowLog is the ring-buffered slow-query log (db.SlowLog; nil when
	// Options.SlowQueryThreshold is zero).
	SlowLog = obs.SlowLog
)

// NewTrace creates an empty trace for one query; pass it via WithTrace
// and read it back after the query returns (Snapshot or JSON).
func NewTrace(name string) *Trace { return obs.NewTrace(name) }

// IntVal constructs an integer Value.
func IntVal(i int64) Value { return schema.IntVal(i) }

// FloatVal constructs a floating-point Value.
func FloatVal(f float64) Value { return schema.FloatVal(f) }

// CharVal constructs a fixed-width character Value.
func CharVal(s string) Value { return schema.CharVal(s) }

// Execution strategies (StrategyAuto lets the planner decide, which is
// the recommended setting; the rest force a strategy for experiments).
const (
	StrategyAuto            = exec.StratAuto
	StrategyPreFilter       = exec.StratPre
	StrategyCrossPreFilter  = exec.StratCrossPre
	StrategyPostFilter      = exec.StratPost
	StrategyCrossPostFilter = exec.StratCrossPost
	StrategyPostSelect      = exec.StratPostSelect
	StrategyCrossPostSelect = exec.StratCrossPostSelect
	StrategyNoFilter        = exec.StratNoFilter
)

// Projection algorithms.
const (
	ProjectorBloom      = exec.ProjectBloom
	ProjectorNoBF       = exec.ProjectNoBF
	ProjectorBruteForce = exec.ProjectBruteForce
)

// ErrBloomInfeasible mirrors exec.ErrBloomInfeasible for callers forcing
// Post-Filter strategies.
var ErrBloomInfeasible = exec.ErrBloomInfeasible

// ErrBudgetTooSmall mirrors exec.ErrBudgetTooSmall: the statement's
// planned minimum RAM footprint exceeds the configured budget, so it was
// rejected cleanly at admission time (inspect Stmt.Plan().MinBuffers).
var ErrBudgetTooSmall = exec.ErrBudgetTooSmall

// ErrOverloaded mirrors exec.ErrOverloaded: the statement was shed at
// arrival because its token's predicted admission-queue wait exceeded
// Options.MaxQueueWait. Nothing was reserved; retry after backing off.
// Servers surface it as HTTP 429.
var ErrOverloaded = exec.ErrOverloaded

// Version identifies the GhostDB build (also carried by the
// ghostdb_build_info metric, the server's STATS output and the demo
// shell banner).
const Version = exec.Version

// Options configures the simulated secure platform. The zero value uses
// the paper's Table 1 parameters: 2KB pages, 64KB RAM, 1.5 MB/s link.
type Options struct {
	// RAMBytes is the secure chip RAM budget (default 65536).
	RAMBytes int
	// ThroughputMBps is the USB link speed (default 1.5).
	ThroughputMBps float64
	// FlashPageSize is the flash I/O unit (default 2048).
	FlashPageSize int
	// FlashBlocks sets the device capacity in 64-page erase blocks
	// (default 32768 ≈ 4GB).
	FlashBlocks int
	// MaxConcurrentQueries bounds the query sessions admitted at once:
	// each admitted session holds its RAM grant until its query
	// completes, while execution on the simulated token stays serial
	// (default 4; values below 1 mean 1).
	MaxConcurrentQueries int
	// ResultCacheBytes bounds the untrusted-side result cache (0
	// disables caching). The cache is keyed on normalized query text —
	// the one thing GhostDB's security model already reveals — and holds
	// materialized results in *untrusted host RAM*, so it is not charged
	// against the secure RAMBytes budget. A cache hit answers without
	// admitting a session: zero flash I/O and zero bytes on the token
	// bus. A successful Exec (INSERT) invalidates exactly the cached
	// results whose queries touch the inserted table's shard (per-shard
	// version vector).
	ResultCacheBytes int
	// PageCacheBytes bounds the untrusted-side page cache (0 disables
	// it): a second cache below the result cache that retains computed
	// visible-column runs in untrusted host RAM and lets each token keep
	// its matching Vis spools flash-resident until its next committed
	// write, so a repeated visible selection ships a fixed-size header
	// instead of the full run. Keys are canonical per-table predicate
	// text — already revealed by the query — and invalidation rides the
	// same per-shard committed-write versions as the result cache, so
	// hits and misses are a pure function of public state.
	PageCacheBytes int
	// BusAuditEntries bounds each token's bus audit trail: 0 (default)
	// keeps the full trail (tests and forensics), n > 0 keeps a ring of
	// the most recent n records, and negative disables recording
	// entirely (benchmarks and servers; the byte/time counters always
	// accumulate).
	BusAuditEntries int
	// Shards is the number of simulated secure tokens to place the
	// schema's trees across (default 1). Each token is a complete secure
	// unit — its own flash, RAM budget, bus and admission queue — so
	// shard-local workloads scale near-linearly with the token count.
	// Placement is at schema-tree granularity (joins never cross trees);
	// queries over several trees fan out per-shard sub-plans and merge
	// their cross product on the untrusted side.
	Shards int
	// SlowQueryThreshold enables the slow-query log: completed statements
	// (SELECT, UPDATE, DELETE and background COMPACT sessions, each entry
	// kind-tagged) whose simulated time reaches the threshold are
	// recorded (canonical statement text, costs and a span summary — all
	// declassified scalars) in a ring of the latest 128 entries. Zero
	// leaves the log disabled.
	SlowQueryThreshold time.Duration
	// CompactThreshold is the delta-log depth, in flash pages, at which
	// a token starts a background compaction (default 64; negative
	// disables automatic compaction — DB.Compact still works).
	CompactThreshold int
	// MaxQueueWait enables load shedding: a statement arriving when its
	// token's predicted admission wait exceeds the bound fails fast with
	// ErrOverloaded instead of queueing, keeping admitted-query latency
	// bounded under open-loop overload. 0 disables shedding (the
	// default). Background compaction is never shed.
	MaxQueueWait time.Duration
	// SLOTarget is the wall-clock latency objective the rolling SLO
	// window (DB.SLO, the /slo endpoint, ghostdb_slo_attainment) scores
	// completed statements against (default 25ms).
	SLOTarget time.Duration
	// PaceSimulation > 0 makes every session hold its token's execution
	// slot, after its host work, for SimTime/PaceSimulation of real time
	// on average over the token's statements (a pacing sleep's overshoot
	// is carried as credit into the token's next statements), so
	// wall-clock latency reflects the modeled hardware's occupancy
	// instead of host CPU speed. Answers and simulated counters are
	// unaffected; 0 disables pacing (the default). Benchmarks and
	// overload tests use this — production embeddings normally leave it
	// off.
	PaceSimulation float64
}

func (o Options) toExec() exec.Options {
	var eo exec.Options
	eo.RAMBudget = o.RAMBytes
	eo.ThroughputMBps = o.ThroughputMBps
	eo.MaxConcurrentQueries = o.MaxConcurrentQueries
	eo.ResultCacheBytes = o.ResultCacheBytes
	eo.PageCacheBytes = o.PageCacheBytes
	eo.BusAuditEntries = o.BusAuditEntries
	eo.Shards = o.Shards
	eo.SlowQueryThreshold = o.SlowQueryThreshold
	eo.CompactThreshold = o.CompactThreshold
	eo.MaxQueueWait = o.MaxQueueWait
	eo.SLOTarget = o.SLOTarget
	eo.PaceSimulation = o.PaceSimulation
	fp := flash.DefaultParams()
	if o.FlashPageSize > 0 {
		fp.PageSize = o.FlashPageSize
	}
	if o.FlashBlocks > 0 {
		fp.Blocks = o.FlashBlocks
	}
	eo.FlashParams = fp
	return eo
}

// DB is a GhostDB instance: an untrusted visible store plus a simulated
// secure USB key holding the hidden partition and all index structures.
type DB struct {
	sch   *schema.Schema
	inner *exec.DB
	// loaded flips once at Loader.Commit; atomic so queries started on
	// other goroutines observe the commit (and everything the load wrote
	// before it) with a proper happens-before edge.
	loaded atomic.Bool
}

// Create parses the CREATE TABLE statements (with HIDDEN annotations and
// REFERENCES clauses forming a tree schema) and prepares an empty
// database. Load data with Loader before querying.
func Create(ddl []string, opts Options) (*DB, error) {
	var defs []schema.TableDef
	for _, stmt := range ddl {
		parsed, err := sqlparse.Parse(stmt)
		if err != nil {
			return nil, err
		}
		ct, ok := parsed.(sqlparse.CreateTable)
		if !ok {
			return nil, fmt.Errorf("ghostdb: Create expects CREATE TABLE statements, got %T", parsed)
		}
		defs = append(defs, ct.Def)
	}
	sch, err := schema.New(defs)
	if err != nil {
		return nil, err
	}
	inner, err := exec.NewDB(sch, opts.toExec())
	if err != nil {
		return nil, err
	}
	return &DB{sch: sch, inner: inner}, nil
}

// Schema renders the database schema as SQL.
func (db *DB) Schema() string { return db.sch.String() }

// Rows returns the cardinality of a table.
func (db *DB) Rows(table string) (int, error) {
	t, ok := db.sch.Lookup(table)
	if !ok {
		return 0, fmt.Errorf("ghostdb: unknown table %q", table)
	}
	return db.inner.Rows(t.Index), nil
}

// QueryOption customizes one QueryCtx call. There are no database-wide
// query defaults, so concurrent callers cannot trample each other's
// knobs.
type QueryOption func(*exec.QueryConfig)

// WithStrategy forces the visible/hidden combination strategy for this
// query only (StrategyAuto restores planner choice).
func WithStrategy(s Strategy) QueryOption {
	return func(c *exec.QueryConfig) { c.Strategy = s }
}

// WithProjector selects the projection algorithm for this query only.
func WithProjector(p Projector) QueryOption {
	return func(c *exec.QueryConfig) { c.Projector = p }
}

// WithTrace attaches a span tree to this query: parse, resolve, plan,
// admission wait, token execution (with per-operator simulated costs
// summing to Stats.SimTime), cache lookups and scatter legs all record
// spans into tr. Read it back with tr.Snapshot or tr.JSON after the
// query returns. A nil tr is a no-op.
func WithTrace(tr *Trace) QueryOption {
	return func(c *exec.QueryConfig) { c.Trace = tr }
}

// WithRAMBuffers adjusts this query session's RAM admission request in
// whole buffers (flash pages): the session waits until at least
// max(min, the plan's derived floor) buffers of secure RAM are free,
// then owns up to want of them for the whole query. Smaller grants mean
// more operator passes, never wrong answers or mid-run failures — the
// floor the planner derived is always honored. Capping want below the
// full budget lets several sessions hold RAM at once. Zero values keep
// the plan's own request (its floor, and the whole budget as the
// elastic target).
func WithRAMBuffers(min, want int) QueryOption {
	return func(c *exec.QueryConfig) { c.MinBuffers, c.WantBuffers = min, want }
}

// Stmt is a prepared statement: the parsed, resolved and planned form of
// one SQL statement, carrying an inspectable Plan. Prepare once, inspect
// or Run many times; a Stmt is safe for concurrent Run calls.
//
// The plan is bound at Prepare time: per-table strategies come from the
// visible selectivities observed then, and the Plan's MinBuffers is the
// admission floor Run will request. Later inserts can drift the
// selectivities — answers stay exact under every strategy, only costs
// shift — so long-lived statements over fast-changing tables are worth
// re-preparing occasionally.
type Stmt struct {
	inner *exec.Stmt
}

// Prepare parses, resolves and plans a statement without admitting or
// executing anything. It is the single planning path: Query and QueryCtx
// are prepare-then-run wrappers, so the plan you inspect here is exactly
// the plan they execute.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	if !db.loaded.Load() {
		return nil, errors.New("ghostdb: load data first (Loader / Commit)")
	}
	inner, err := db.inner.Prepare(sql, exec.QueryConfig{})
	if err != nil {
		return nil, err
	}
	return &Stmt{inner: inner}, nil
}

// Plan returns the statement's execution plan: per-table strategies,
// projector, the derived RAM footprint and an estimated cost.
func (s *Stmt) Plan() *Plan { return s.inner.Plan() }

// Explain renders the plan as text (what the shell prints for
// `EXPLAIN SELECT ...`), with each hidden predicate's planned route: an
// anchor's hidden selection shows the CI and Scan prices it chose by.
func (s *Stmt) Explain() string { return s.inner.Plan().Explain() }

// Run executes the prepared statement as one admitted query session.
// Options that change the plan itself (WithStrategy, WithProjector)
// trigger a replan for that run only; WithRAMBuffers can raise the
// admission floor or cap the elastic want, but never push the grant
// below the plan's derived minimum; the hidden predicates keep the
// routes the plan priced at the grant it was prepared to request.
func (s *Stmt) Run(ctx context.Context, opts ...QueryOption) (*Result, error) {
	var cfg exec.QueryConfig
	for _, o := range opts {
		o(&cfg)
	}
	return s.inner.RunCtx(ctx, cfg)
}

// Explain plans a statement and renders the plan without executing it.
func (db *DB) Explain(sql string) (string, error) {
	stmt, err := db.Prepare(sql)
	if err != nil {
		return "", err
	}
	return stmt.Explain(), nil
}

// Query executes a SELECT statement and returns rows plus cost stats.
// It is safe to call from multiple goroutines; each call becomes one
// scheduled session (see QueryCtx).
func (db *DB) Query(sql string) (*Result, error) {
	return db.QueryCtx(context.Background(), sql)
}

// QueryCtx executes a SELECT statement as one admitted query session
// (prepare-then-run: the statement is planned first, and admission
// requests the plan's true minimum RAM footprint). The call waits in a
// FIFO queue until the secure chip can grant that floor and a
// concurrency slot (Options.MaxConcurrentQueries); cancelling ctx while
// queued abandons the request without it ever having held memory. Once
// running, the query executes to completion with exclusive use of the
// simulated token, so its Stats are deterministic regardless of
// concurrency.
func (db *DB) QueryCtx(ctx context.Context, sql string, opts ...QueryOption) (*Result, error) {
	if !db.loaded.Load() {
		return nil, errors.New("ghostdb: load data first (Loader / Commit)")
	}
	var cfg exec.QueryConfig
	for _, o := range opts {
		o(&cfg)
	}
	return db.inner.RunCtx(ctx, sql, cfg)
}

// Exec executes a non-SELECT statement: INSERT, UPDATE or DELETE.
// UPDATE and DELETE commit through the secure token's hidden delta log
// (tombstones and upserted row images); every committed write
// invalidates the cached results of its shard, so no later query can
// observe a pre-write cached answer. UPDATEs that assign visible
// columns while filtering on hidden ones are rejected — the matched
// visible rows would reveal which hidden values satisfied the
// predicate.
func (db *DB) Exec(sql string) error {
	return db.ExecCtx(context.Background(), sql)
}

// ExecCtx is Exec with cancellation: cancelling ctx while the statement
// is queued for admission abandons it without it having run.
func (db *DB) ExecCtx(ctx context.Context, sql string) error {
	if !db.loaded.Load() {
		return errors.New("ghostdb: load data first (Loader / Commit)")
	}
	_, err := db.inner.RunCtx(ctx, sql, exec.QueryConfig{})
	return err
}

// Compact synchronously folds every token's accumulated delta log into
// fresh base images and index structures. It acquires a normal
// scheduled session per token — on the bus it is indistinguishable from
// query work — and leaves query answers unchanged, so the result cache
// survives the swap. Background compaction triggers automatically when
// a token's delta depth crosses Options.CompactThreshold; this is the
// explicit handle (the shell's \compact).
func (db *DB) Compact(ctx context.Context) error {
	if !db.loaded.Load() {
		return errors.New("ghostdb: load data first (Loader / Commit)")
	}
	return db.inner.Compact(ctx)
}

// DeltaStats reports one secure token's write-path counters.
type DeltaStats = exec.DeltaStats

// ShardDeltaStats reports each token's delta-log depth, committed DML
// statement count and completed compactions, in shard order. The
// values are declassified mirrors maintained at commit and compaction
// time — reading them never touches hidden state.
func (db *DB) ShardDeltaStats() []DeltaStats { return db.inner.TokenDeltaStats() }

// SetThroughput changes the modeled USB link speed in MB/s. Safe under
// concurrent sessions: each query session snapshots the speed when it
// starts executing, so the change applies to sessions started after the
// call and never skews a running query's reported CommTime. When the
// speed is fixed for the whole run, prefer Options.ThroughputMBps.
func (db *DB) SetThroughput(mbps float64) { db.inner.SetThroughput(mbps) }

// Totals reports the cumulative simulated cost of all completed queries.
func (db *DB) Totals() exec.Totals { return db.inner.Totals() }

// Shards returns the number of secure tokens the database runs on.
func (db *DB) Shards() int { return db.inner.Placement().Shards() }

// ShardOf returns the shard ordinal holding a table.
func (db *DB) ShardOf(table string) (int, error) {
	t, ok := db.sch.Lookup(table)
	if !ok {
		return 0, fmt.Errorf("ghostdb: unknown table %q", table)
	}
	return db.inner.Placement().Of(t.Index), nil
}

// ShardTotals reports each secure token's cumulative costs of metered
// sessions (SELECT, UPDATE, DELETE, COMPACT; INSERT is not metered), in
// shard order. Summed across shards, the flash and bus counters equal
// what an unsharded engine reports for the same executed work — sharding
// spreads secure-side work, it never adds any.
func (db *DB) ShardTotals() []exec.Totals { return db.inner.TokenTotals() }

// DescribePlacement renders the table→shard placement for humans.
func (db *DB) DescribePlacement() string {
	return db.inner.Placement().Describe(db.sch)
}

// CacheStats snapshots the result cache's counters: entries, bytes,
// hits, singleflight-shared answers, evictions and invalidations. The
// zero value is returned when Options.ResultCacheBytes left the cache
// disabled.
func (db *DB) CacheStats() CacheStats { return db.inner.CacheStats() }

// PageCacheStats reports the page cache's counters (db.PageCacheStats).
type PageCacheStats = cache.Stats

// PageCacheStats snapshots the page cache's counters: entries, bytes,
// hits, misses, evictions and invalidations. The zero value is returned
// when Options.PageCacheBytes left the cache disabled.
func (db *DB) PageCacheStats() PageCacheStats { return db.inner.PageCacheStats() }

// Metrics returns the engine's metric registry. It is always collecting
// (a few atomic adds per query); render it with WritePrometheus when the
// process opts into exposure.
func (db *DB) Metrics() *Metrics { return db.inner.Metrics() }

// SlowLog returns the slow-query log, or nil when
// Options.SlowQueryThreshold left it disabled.
func (db *DB) SlowLog() *SlowLog { return db.inner.SlowLog() }

// SLOSnapshot is the live SLO observatory's view: rolling attainment
// and latency quantiles over the last minute of client-level wall
// latency, plus per-shard queue depth, running sessions and shed
// counts.
type SLOSnapshot = exec.SLOSnapshot

// SLOShard is one shard's admission-side state in an SLOSnapshot.
type SLOShard = exec.SLOShard

// SLO snapshots the rolling SLO window — the same numbers the /slo
// endpoint serves and the ghostdb_slo_* gauges expose.
func (db *DB) SLO() SLOSnapshot { return db.inner.SLO() }

// Internal returns the underlying engine, for the benchmark harness and
// tools living inside this module.
func (db *DB) Internal() *exec.DB { return db.inner }
