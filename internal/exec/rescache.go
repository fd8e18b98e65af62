package exec

import (
	"context"
	"fmt"
	"unsafe"

	"ghostdb/internal/cache"
	"ghostdb/internal/query"
	"ghostdb/internal/schema"
)

// This file wires the untrusted-side caches, two instances of
// cache.Cache (the result cache and the page cache), into the executor.
// The result cache's design constraints, in the paper's terms:
//
//   - The cache key is the *normalized query text* (query.Canonical plus
//     the forced strategy/projector knobs, which change measured costs).
//     Query text is the one thing GhostDB's security model already
//     reveals to the untrusted side, so the key leaks nothing new.
//   - Cached values are materialized Results — data the untrusted side
//     has already been handed once. A hit replays a (query, result)
//     pair the observer has already seen; it adds no new volume signal.
//   - Cache memory is untrusted host RAM and is therefore NOT charged
//     against the secure chip's RAM budget (ram.Manager): the cache
//     exists precisely to trade plentiful untrusted memory for scarce
//     secure-token round-trips.
//   - A hit performs zero secure-token work: no session is admitted, no
//     flash I/O happens, and not a single byte crosses the bus in either
//     direction (the query text itself never travels). Stats of a hit
//     are all-zero except the CacheHit/CacheShared markers.
//   - Invalidation is per shard: every committed INSERT, UPDATE or
//     DELETE bumps the data version of the one shard it wrote
//     (db.committed), so a post-update query can never observe a
//     pre-update answer while results over other tokens stay cached.
//     Concurrent identical queries collapse onto one admitted session
//     (singleflight) and share its materialized result.

// committed is the one commit hook of every write statement: it drops
// the token's retained Vis spools and advances the shard's version in
// both untrusted-side caches, so no later query touching the shard can
// be answered from a pre-write entry or replay a pre-write spool.
// Queries already in flight are prevented from *storing* their results
// by the caches' version stamp; entries over other shards are untouched.
//
//ghostdb:requires-slot
func (db *DB) committed(tok *Token) {
	tok.dropSpools()
	if db.cache != nil {
		db.cache.BumpShard(tok.id)
	}
	if db.pages != nil {
		db.pages.BumpShard(tok.id)
	}
}

// cacheKey derives the result-cache key for a resolved query under a
// given configuration. Strategy and projector are part of the key so a
// forced-strategy run (experiments measuring that strategy's cost) never
// aliases with the planner's default choice. The RAM-admission knobs are
// deliberately excluded: they change costs, never answers, and a hit
// reports no execution cost at all.
func cacheKey(q *query.Query, cfg QueryConfig) string {
	return fmt.Sprintf("s%d|p%d|%s", cfg.Strategy, cfg.Projector, q.Canonical())
}

// Shared returns a shallow copy of the result for handing to another
// caller: Columns, Rows and the Stats' Ops and Strategy are shared with
// the original. Both copies must be treated as immutable — the engine
// never mutates a Result after returning it, and callers (including
// everything behind the result cache) must not either.
func (r *Result) Shared() *Result {
	cp := *r
	return &cp
}

// The sizes of one value and one row header, as SizeBytes counts them.
const (
	valueBytes = int64(unsafe.Sizeof(schema.Value{}))
	rowBytes   = int64(unsafe.Sizeof(schema.Row(nil)))
)

// SizeBytes estimates the heap footprint of a materialized result for
// the cache's byte accounting: values plus char payloads, row slice
// headers, the arena storage the rows keep alive beyond their own
// (rowarena.go), column labels and a fixed allowance for Stats.
func (r *Result) SizeBytes() int64 {
	n := 256 + r.slack
	for _, c := range r.Columns {
		n += int64(len(c)) + 16
	}
	for _, row := range r.Rows {
		n += rowBytes
		for _, v := range row {
			n += valueBytes + int64(len(v.S))
		}
	}
	return n
}

// CacheStats snapshots the result cache's counters (zero value when the
// cache is disabled).
func (db *DB) CacheStats() cache.Stats {
	if db.cache == nil {
		return cache.Stats{}
	}
	return db.cache.Stats()
}

// PageCacheStats snapshots the page cache's counters (zero value when
// the cache is disabled).
func (db *DB) PageCacheStats() cache.Stats {
	if db.pages == nil {
		return cache.Stats{}
	}
	return db.pages.Stats()
}

// BusCoalesced sums the batched-transfer round-trips saved across every
// token's link (the ghostdb_bus_coalesced_total counter).
func (db *DB) BusCoalesced() uint64 {
	var n uint64
	for _, tok := range db.tokens {
		n += tok.Bus.Coalesced()
	}
	return n
}

// cachedSelect routes one SELECT through the cache: hit → the
// materialized result is shared with zero secure-token work; concurrent
// identical queries → one computation (singleflight), shared result;
// miss → compute runs (plan when unplanned, then execute) and its
// result is stored, stamped with the versions of the shards the query
// touches (a pure function of query text + schema placement) as
// observed before it started, so a racing INSERT can never leave a
// stale entry behind — and an INSERT to an untouched shard never evicts
// it at all. Stmt.run books whatever it returns, a hit at zero cost.
func (db *DB) cachedSelect(ctx context.Context, q *query.Query, cfg QueryConfig, compute func() (*Result, error)) (*Result, error) {
	// The cache span wraps the key derivation and the whole Do call; on a
	// miss the compute's own plan/exec spans appear as siblings under the
	// trace root (the lookup span's note records the outcome either way).
	cacheSp := cfg.Trace.Root().Start("cache")
	v, outcome, err := db.cache.Do(ctx, cacheKey(q, cfg), db.shardsOf(q), func() (any, int64, error) {
		res, err := compute()
		if err != nil {
			return nil, 0, err
		}
		return res, res.SizeBytes(), nil
	})
	if err != nil {
		cacheSp.End()
		return nil, err
	}
	res := v.(*Result)
	if outcome == cache.Miss {
		cacheSp.SetNote("miss")
		cacheSp.End()
		return res, nil
	}
	out := res.Shared()
	out.Stats = Stats{
		CacheHit:    outcome == cache.Hit,
		CacheShared: outcome == cache.Shared,
	}
	if out.Stats.CacheHit {
		cacheSp.SetNote("hit")
	} else {
		cacheSp.SetNote("shared")
	}
	cacheSp.End()
	return out, nil
}
