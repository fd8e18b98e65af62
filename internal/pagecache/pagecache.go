// Package pagecache keeps the constructor and the Acquire lookup that
// the benchmark's cache probe times. The engine's page cache is a second
// cache.Cache (internal/cache holds its design and security argument);
// a Cache here is that same type, and Acquire is a Get whose release
// does nothing, because no cache pins its entries.
package pagecache

import "ghostdb/internal/cache"

// Policy is the type of New's second parameter; only nil is meaningful.
type Policy struct{}

// Cache is a cache.Cache with Acquire.
type Cache struct{ *cache.Cache }

// New creates a cache bounded to capBytes of cached values (sizes are
// caller-reported). capBytes <= 0 yields a cache that never stores.
func New(capBytes int64, _ *Policy) *Cache { return &Cache{cache.New(capBytes)} }

// Acquire is Get; release is a no-op kept for the probe's call shape.
func (c *Cache) Acquire(key string) (val any, release func(), ok bool) {
	val, ok = c.Get(key)
	return val, func() {}, ok
}
