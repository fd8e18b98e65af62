// Package pagecache is the untrusted-side buffer pool: a byte-bounded
// frame cache one level below the result cache, holding (a) encoded
// visible-column runs and (b) already-revealed Vis id-list/value runs,
// keyed on canonical per-table predicate text so repeated and
// multi-pass executions skip recompute, re-encoding and — paired with
// the token-side retained spools in internal/exec — re-shipping over
// the bus.
//
// Security invariant (why this cache is leak-free by construction):
// every cached value is a pure function of (i) the visible partition,
// which the untrusted side holds in full by definition, and (ii) the
// canonical query text, which is the one thing GhostDB's model already
// reveals (§1 of the paper). The cache key is that text restricted to
// one table; hit-or-miss is therefore a pure function of the public
// query history plus committed-write versions — an observer of the
// query stream can predict every hit, so hits reveal nothing new. This
// is the PR 4 result-cache argument, one level lower.
//
// Invalidation shares internal/cache's per-shard version vector
// (cache.Versions): every committed write bumps the version of exactly
// the shard it touched, and frames are stamped with the versions of the
// shards their keys span. Versions advance only on statements the
// untrusted side itself submitted, so neither stamps nor sweeps depend
// on hidden data.
//
// RAM invariant: frames live in untrusted host RAM and are never
// charged against the secure chip's 64KB budget — the point is to spend
// plentiful untrusted memory to save scarce secure resources (token
// RAM, flash I/O, the USB link).
//
// Values are opaque and shared between all readers; holders MUST treat
// them as immutable. Frames can be pinned (Acquire) while a reader
// drains them; pinned frames are never evicted, matching the classic
// buffer-pool-manager discipline.
package pagecache

import (
	"container/list"
	"sync"

	"ghostdb/internal/cache"
)

// Stats is a snapshot of the pool's counters.
type Stats struct {
	Entries       int    `json:"entries"`
	Bytes         int64  `json:"bytes"`
	CapacityBytes int64  `json:"capacity_bytes"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Stores        uint64 `json:"stores"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	// PinSkips counts eviction attempts that had to pass over a pinned
	// frame (a liveness, not correctness, signal).
	PinSkips uint64 `json:"pin_skips"`
}

// frame is one cached run, stamped like a result-cache entry: stamp[0]
// is the wholesale epoch, stamp[i+1] the version of shards[i].
type frame struct {
	key    string
	val    any
	size   int64
	pins   int
	shards []int
	stamp  []uint64
	el     *list.Element // position in Cache.lru
}

// Cache is the byte-bounded frame pool, evicting the least-recently-used
// unpinned frame. All methods are safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	cap    int64
	bytes  int64
	frames map[string]*frame
	lru    *list.List // front = most recently used; values are *frame
	ver    cache.Versions

	hits, misses, stores, evictions, invalidations, pinSkips uint64
}

// Policy is the type of New's second parameter. Eviction is always LRU;
// the parameter remains, and only nil is meaningful, because
// benchmark/probes.go (frozen) calls New(n, nil).
type Policy struct{}

// New creates a pool bounded to capBytes of cached runs (sizes are
// caller-reported). capBytes <= 0 yields a pool that never stores.
func New(capBytes int64, _ *Policy) *Cache {
	return &Cache{cap: capBytes, frames: make(map[string]*frame), lru: list.New()}
}

// Stamp snapshots the version vector restricted to the given shards;
// pass the result to Put so a run encoded before a racing committed
// write can never be stored.
func (c *Cache) Stamp(shards []int) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ver.Stamp(cache.NormShards(shards))
}

// Version returns one shard's current data version (0 for shards never
// bumped). Token-side retained state compares against this to decide
// whether a header-only re-ship is still valid.
func (c *Cache) Version(shard int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ver.Of(shard)
}

// Bump invalidates every frame regardless of shard (wholesale).
func (c *Cache) Bump() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ver.BumpAll()
	c.invalidations++
	c.lru.Init()
	clear(c.frames)
	c.bytes = 0
}

// BumpShard advances one shard's data version after a committed write,
// eagerly sweeping the frames whose keys touch that shard. Pinned
// frames are removed from the index too — current holders keep their
// (immutable, pre-write) value, but no later lookup can observe it.
func (c *Cache) BumpShard(shard int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	shard = c.ver.BumpShard(shard)
	c.invalidations++
	for _, f := range c.frames {
		for _, s := range f.shards {
			if s == shard {
				c.removeLocked(f)
				break
			}
		}
	}
}

// Get returns the cached run for key, if still fresh.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.getLocked(key)
	if !ok {
		return nil, false
	}
	return f.val, true
}

// Acquire is Get with a pin: the returned release func must be called
// when the caller is done draining the run, and until then the frame
// cannot be evicted (it can still be invalidated — the holder keeps its
// immutable value, later lookups miss).
func (c *Cache) Acquire(key string) (val any, release func(), ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, hit := c.getLocked(key)
	if !hit {
		return nil, nil, false
	}
	f.pins++
	var once sync.Once
	release = func() {
		once.Do(func() {
			c.mu.Lock()
			f.pins--
			c.mu.Unlock()
		})
	}
	return f.val, release, true
}

func (c *Cache) getLocked(key string) (*frame, bool) {
	f, ok := c.frames[key]
	if !ok {
		c.misses++
		return nil, false
	}
	if !c.ver.Fresh(f.shards, f.stamp) {
		// Stale under a racing bump; bumps sweep eagerly, so this is only
		// a belt-and-suspenders check.
		c.removeLocked(f)
		c.misses++
		return nil, false
	}
	c.lru.MoveToFront(f.el)
	c.hits++
	return f, true
}

// Put stores val under key, stamped with the version vector the caller
// observed (via Stamp) before encoding it; a stale stamp drops the
// value. Returns whether the value was stored.
func (c *Cache) Put(key string, val any, size int64, shards []int, stamp []uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	shards = cache.NormShards(shards)
	if !c.ver.Fresh(shards, stamp) || size > c.cap || size < 0 {
		return false
	}
	if old, ok := c.frames[key]; ok {
		c.removeLocked(old) // replacement, not counted as an eviction
	}
	for c.bytes+size > c.cap {
		victim := c.victimLocked()
		if victim == nil {
			return false // everything left is pinned; don't overfill
		}
		c.removeLocked(victim)
		c.evictions++
	}
	f := &frame{key: key, val: val, size: size,
		shards: append([]int(nil), shards...), stamp: append([]uint64(nil), stamp...)}
	f.el = c.lru.PushFront(f)
	c.frames[key] = f
	c.bytes += size
	c.stores++
	return true
}

// victimLocked returns the least-recently-used unpinned frame, or nil
// when every remaining frame is pinned.
func (c *Cache) victimLocked() *frame {
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		f := el.Value.(*frame)
		if f.pins == 0 {
			return f
		}
		c.pinSkips++
	}
	return nil
}

func (c *Cache) removeLocked(f *frame) {
	delete(c.frames, f.key)
	c.lru.Remove(f.el)
	c.bytes -= f.size
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:       len(c.frames),
		Bytes:         c.bytes,
		CapacityBytes: c.cap,
		Hits:          c.hits,
		Misses:        c.misses,
		Stores:        c.stores,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		PinSkips:      c.pinSkips,
	}
}
