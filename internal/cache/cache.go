// Package cache is the untrusted side's one cache type: a byte-bounded
// LRU of opaque values, invalidated by a per-shard data-version vector
// that every committed write bumps for the one shard it touched, and
// fronted by a singleflight layer that collapses concurrent identical
// lookups into one computation. The engine runs two instances of it:
//
//   - the result cache: materialized query answers keyed on the
//     *normalized query text* (internal/exec);
//   - the page cache: encoded Vis runs keyed on canonical per-table
//     predicate text (untrusted.Engine.ComputeVis), so repeated and
//     multi-pass executions skip the scan and the re-encoding.
//
// Security invariant (why both are leak-free by construction):
// GhostDB's guarantee is that the only information that ever leaves the
// secure perimeter is the query text itself (§1 of the paper). Both keys
// are normalizations of exactly that text, and the cached values are
// either query results — data the untrusted side has, by definition,
// already seen once — or pure functions of the visible partition, which
// the untrusted side holds in full. A hit therefore reveals nothing an
// observer of the query stream did not already know; it only *removes*
// secure-token round-trips. In the volume-leakage sense of Poddar et
// al., hits repeat a (query, result-volume) pair the adversary has
// already observed — the cache never creates a new observable pair.
//
// The same argument covers the per-shard version vector: an entry is
// stamped with the versions of exactly the shards its key touches, and
// the shard set is a pure function of the query text and the schema
// (which tables the query names, and which token each table was placed
// on). Versions advance on committed writes — statements the untrusted
// side itself submitted — so neither the stamps nor the invalidations
// depend on hidden data.
//
// RAM invariant: cache memory is untrusted host RAM. It is *not* charged
// against the secure chip's 64KB budget (ram.Manager) — the whole point
// is to spend plentiful untrusted memory to save the scarce secure
// resources (token RAM, flash I/O and the USB link).
//
// The cache is value-agnostic: it stores opaque values with a caller-
// provided byte size, so it does not depend on the executor's types.
// Cached values are shared between all readers and MUST be treated as
// immutable by every holder.
package cache

import (
	"container/list"
	"context"
	"sync"
)

// Outcome classifies how a Do call was answered.
type Outcome int

const (
	// Miss: this call computed the value itself (it was the singleflight
	// leader, or it fell back to computing after a leader failed).
	Miss Outcome = iota
	// Hit: the value was served from the cache; nothing was computed.
	Hit
	// Shared: the value was computed once by a concurrent identical call
	// and shared with this one (singleflight collapse).
	Shared
)

func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Shared:
		return "shared"
	}
	return "?"
}

// Stats is a snapshot of the cache's counters.
type Stats struct {
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	CapacityBytes int64 `json:"capacity_bytes"`
	// Version is a monotone global stamp: the sum of every shard's
	// version.
	Version uint64 `json:"version"`
	// ShardVersions is the per-shard data-version vector (index = shard).
	ShardVersions []uint64 `json:"shard_versions,omitempty"`
	Hits          uint64   `json:"hits"`
	SharedHits    uint64   `json:"shared_hits"`
	Misses        uint64   `json:"misses"`
	Stores        uint64   `json:"stores"`
	Evictions     uint64   `json:"evictions"`
	Invalidations uint64   `json:"invalidations"`
}

// entry is one cached value, stamped with the versions of the shards its
// key touches (parallel slices shards/stamp).
type entry struct {
	key    string
	val    any
	size   int64
	shards []int
	stamp  []uint64 // stamp[i] = version of shards[i]
}

// flight is one in-progress computation that concurrent identical calls
// can attach to.
type flight struct {
	shards []int
	stamp  []uint64      // as in entry
	done   chan struct{} // closed when val/err are set
	val    any
	err    error
}

// Cache is a byte-bounded LRU with per-shard version invalidation and
// singleflight collapsing. All methods are safe for concurrent use;
// computations passed to Do run outside the cache lock.
type Cache struct {
	mu      sync.Mutex
	cap     int64
	bytes   int64
	ll      *list.List // front = most recently used; values are *entry
	entries map[string]*list.Element
	flights map[string]*flight
	ver     versions

	hits, shared, misses, stores, evictions, invalidations uint64
}

// New creates a cache bounded to capBytes of cached values (sizes are
// caller-reported). capBytes <= 0 yields a cache that never stores — Do
// still collapses concurrent identical calls.
func New(capBytes int64) *Cache {
	return &Cache{
		cap:     capBytes,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
		flights: make(map[string]*flight),
	}
}

// Stamp snapshots the version vector restricted to the given shards;
// pass the result to Put so a value computed before a racing update can
// never be stored.
func (c *Cache) Stamp(shards []int) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ver.Stamp(normShards(shards))
}

// BumpShard advances one shard's data version: committed writes call it
// for the shard they wrote, after their mutations are visible. Only
// entries whose key touches that shard are dropped — entries over other
// shards survive, which is what makes INSERT fan-out cheap in a sharded
// deployment. In-flight computations touching the shard are prevented
// from storing their results, and later Do calls will not join their
// flights.
func (c *Cache) BumpShard(shard int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	shard = c.ver.BumpShard(shard)
	c.invalidations++
	// Eager sweep: entries touching the shard are dead now; dropping them
	// immediately keeps the byte accounting and the LRU capacity honest.
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*entry)
		for _, s := range e.shards {
			if s == shard {
				c.removeLocked(el)
				break
			}
		}
	}
}

// Get returns the cached value for key, if still fresh (each entry
// carries the shard set and version stamp it was computed under).
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.getLocked(key)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

func (c *Cache) getLocked(key string) (any, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*entry)
	if !c.ver.Fresh(e.shards, e.stamp) {
		// Stale under a racing bump; bumps drop affected entries eagerly,
		// so this is only a belt-and-suspenders check.
		c.removeLocked(el)
		return nil, false
	}
	c.ll.MoveToFront(el)
	return e.val, true
}

// Put stores val under key, stamped with the version vector the caller
// observed (via Stamp) *before* computing it: if updates committed on
// any touched shard since, the value may be stale and is dropped.
// Returns whether the value was stored.
func (c *Cache) Put(key string, val any, size int64, shards []int, stamp []uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.putLocked(key, val, size, normShards(shards), stamp)
}

func (c *Cache) putLocked(key string, val any, size int64, shards []int, stamp []uint64) bool {
	if !c.ver.Fresh(shards, stamp) || size > c.cap || size < 0 {
		return false
	}
	if el, ok := c.entries[key]; ok {
		c.removeLocked(el) // replacement, not counted as an eviction
	}
	for c.bytes+size > c.cap {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions++
	}
	el := c.ll.PushFront(&entry{key: key, val: val, size: size,
		shards: append([]int(nil), shards...), stamp: append([]uint64(nil), stamp...)})
	c.entries[key] = el
	c.bytes += size
	c.stores++
	return true
}

func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.size
}

// Do answers key from the cache, or computes it — collapsing concurrent
// identical calls so only one compute runs and the rest share its value.
// shards is the set of shards the keyed query touches (nil means shard
// 0); the computed value is stamped with their versions as observed
// before the computation started. compute returns the value and its byte
// size; it runs outside the cache lock. The returned Outcome says how
// the call was answered. A follower whose leader failed computes
// independently (errors are never cached or shared); a follower whose
// ctx is cancelled while waiting returns the ctx error without having
// computed anything.
func (c *Cache) Do(ctx context.Context, key string, shards []int, compute func() (any, int64, error)) (any, Outcome, error) {
	shards = normShards(shards)
	c.mu.Lock()
	if val, ok := c.getLocked(key); ok {
		c.hits++
		c.mu.Unlock()
		return val, Hit, nil
	}
	stamp := c.ver.Stamp(shards)
	if f, ok := c.flights[key]; ok && c.ver.Fresh(f.shards, f.stamp) {
		c.mu.Unlock()
		select {
		case <-f.done:
			if f.err == nil {
				c.mu.Lock()
				c.shared++
				c.mu.Unlock()
				return f.val, Shared, nil
			}
			// The leader failed; compute independently rather than
			// propagating its (possibly context-specific) error.
			return c.lead(key, shards, stamp, nil, compute)
		case <-ctx.Done():
			return nil, Miss, ctx.Err()
		}
	}
	f := &flight{shards: shards, stamp: stamp, done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()
	return c.lead(key, shards, stamp, f, compute)
}

// lead runs compute as the flight's leader (f may be nil for a follower
// retrying after a failed leader) and publishes the result.
func (c *Cache) lead(key string, shards []int, stamp []uint64, f *flight, compute func() (any, int64, error)) (any, Outcome, error) {
	val, size, err := compute()
	c.mu.Lock()
	c.misses++
	if f != nil && c.flights[key] == f {
		delete(c.flights, key)
	}
	if err == nil {
		c.putLocked(key, val, size, shards, stamp)
	}
	c.mu.Unlock()
	if f != nil {
		f.val, f.err = val, err
		close(f.done)
	}
	if err != nil {
		return nil, Miss, err
	}
	return val, Miss, nil
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:       len(c.entries),
		Bytes:         c.bytes,
		CapacityBytes: c.cap,
		Version:       c.ver.Sum(),
		ShardVersions: c.ver.Snapshot(),
		Hits:          c.hits,
		SharedHits:    c.shared,
		Misses:        c.misses,
		Stores:        c.stores,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
	}
}
