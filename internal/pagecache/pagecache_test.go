package pagecache

import (
	"fmt"
	"sync"
	"testing"
)

func TestLRUHitMissEvict(t *testing.T) {
	c := New(100, nil)
	st := c.Stamp(nil)
	if !c.Put("a", "A", 40, nil, st) || !c.Put("b", "B", 40, nil, st) {
		t.Fatal("puts should store")
	}
	if v, ok := c.Get("a"); !ok || v != "A" {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	// "b" is now least recently used; inserting 40 more bytes evicts it.
	if !c.Put("c", "C", 40, nil, st) {
		t.Fatal("Put(c) should store")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 || s.Bytes != 80 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestAcquireIsGet: Acquire answers exactly as Get does, and a frame it
// returned stays evictable — nothing pins.
func TestAcquireIsGet(t *testing.T) {
	c := New(100, nil)
	st := c.Stamp(nil)
	c.Put("a", "A", 60, nil, st)
	v, release, ok := c.Acquire("a")
	if !ok || v != "A" {
		t.Fatalf("Acquire(a) = %v, %v", v, ok)
	}
	if !c.Put("b", "B", 60, nil, st) {
		t.Fatal("Put should evict the acquired frame")
	}
	release()
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted")
	}
	if _, _, ok := c.Acquire("a"); ok {
		t.Fatal("Acquire of an evicted key should miss")
	}
}

func TestShardInvalidation(t *testing.T) {
	c := New(1000, nil)
	st0 := c.Stamp([]int{0})
	st1 := c.Stamp([]int{1})
	c.Put("q0", "v0", 10, []int{0}, st0)
	c.Put("q1", "v1", 10, []int{1}, st1)
	c.BumpShard(0)
	if _, ok := c.Get("q0"); ok {
		t.Fatal("shard-0 frame should be swept by BumpShard(0)")
	}
	if _, ok := c.Get("q1"); !ok {
		t.Fatal("shard-1 frame should survive BumpShard(0)")
	}
	// A stamp taken before the bump can no longer store.
	if c.Put("q0", "stale", 10, []int{0}, st0) {
		t.Fatal("stale stamp must not store")
	}
	if v := c.Stats().ShardVersions; len(v) != 1 || v[0] != 1 {
		t.Fatalf("shard versions = %v, want [1]", v)
	}
}

// TestNegativeShard: a shard number below zero means shard 0 in Stamp,
// Put and BumpShard alike; nothing indexes the vector out of range.
func TestNegativeShard(t *testing.T) {
	c := New(1000, nil)
	st := c.Stamp([]int{-1})
	if !c.Put("k", "v", 10, []int{-1}, st) {
		t.Fatal("Put under a negative shard should store")
	}
	c.BumpShard(-1)
	if v := c.Stats().ShardVersions; len(v) != 1 || v[0] != 1 {
		t.Fatalf("BumpShard(-1) should bump shard 0, versions = %v", v)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("a frame stamped under shard -1 survived the bump of shard 0")
	}
	if c.Put("k", "stale", 10, []int{-1}, st) {
		t.Fatal("stale stamp must not store")
	}
}

func TestZeroCapacityNeverStores(t *testing.T) {
	c := New(0, nil)
	if c.Put("k", "v", 1, nil, c.Stamp(nil)) {
		t.Fatal("zero-capacity pool must not store")
	}
}

// TestConcurrentHitEvictInvalidate hammers one pool from 16 goroutines
// mixing hits, Acquire reads, stores, evictions and shard bumps; run
// under -race it checks the locking discipline, and the final byte
// accounting must still be internally consistent.
func TestConcurrentHitEvictInvalidate(t *testing.T) {
	c := New(1<<12, nil)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%64)
				shard := g % 4
				switch i % 5 {
				case 0:
					st := c.Stamp([]int{shard})
					c.Put(key, i, 128, []int{shard}, st)
				case 1:
					c.Get(key)
				case 2:
					if _, rel, ok := c.Acquire(key); ok {
						c.Get(fmt.Sprintf("k%d", i%64))
						rel()
					}
				case 3:
					if i%40 == 3 {
						c.BumpShard(shard)
					}
				default:
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Bytes < 0 || s.Bytes > s.CapacityBytes {
		t.Fatalf("bytes %d out of [0, %d]", s.Bytes, s.CapacityBytes)
	}
	if int64(s.Entries)*128 != s.Bytes {
		t.Fatalf("%d entries × 128 ≠ %d bytes", s.Entries, s.Bytes)
	}
}
