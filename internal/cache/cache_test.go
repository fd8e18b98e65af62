package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func mustDo(t *testing.T, c *Cache, key string, val any, size int64) Outcome {
	t.Helper()
	got, out, err := c.Do(context.Background(), key, nil, func() (any, int64, error) {
		return val, size, nil
	})
	if err != nil {
		t.Fatalf("Do(%q): %v", key, err)
	}
	if out == Miss && got != val {
		t.Fatalf("Do(%q) computed %v, want %v", key, got, val)
	}
	return out
}

func TestHitMissAndLRUByteBound(t *testing.T) {
	c := New(100)
	if out := mustDo(t, c, "a", "A", 40); out != Miss {
		t.Fatalf("first a: %v, want miss", out)
	}
	if out := mustDo(t, c, "a", "ignored", 40); out != Hit {
		t.Fatalf("second a: %v, want hit", out)
	}
	mustDo(t, c, "b", "B", 40)
	// Touch a so b is the LRU victim.
	if out := mustDo(t, c, "a", nil, 0); out != Hit {
		t.Fatal("a should still be cached")
	}
	mustDo(t, c, "c", "C", 40) // 120 > 100: evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if v, ok := c.Get("a"); !ok || v != "A" {
		t.Fatal("a should have survived eviction")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Bytes != 80 {
		t.Fatalf("entries=%d bytes=%d, want 2/80", st.Entries, st.Bytes)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestOversizedValueNotStored(t *testing.T) {
	c := New(10)
	mustDo(t, c, "big", "BIG", 11)
	if _, ok := c.Get("big"); ok {
		t.Fatal("oversized value must not be cached")
	}
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("stats after oversized store: %+v", st)
	}
}

// TestBumpShardThenRecompute: a bump of the shard every entry is
// stamped with empties the cache, and a key recomputes and is cached
// again under the new version.
func TestBumpShardThenRecompute(t *testing.T) {
	c := New(1000)
	mustDo(t, c, "a", "A", 10)
	mustDo(t, c, "b", "B", 10)
	c.BumpShard(0)
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived its shard's bump")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Version != 1 || st.Invalidations != 1 {
		t.Fatalf("post-bump stats: %+v", st)
	}
	if out := mustDo(t, c, "a", "A2", 10); out != Miss {
		t.Fatal("post-bump a should recompute")
	}
	if v, ok := c.Get("a"); !ok || v != "A2" {
		t.Fatal("post-bump a should be cached fresh")
	}
}

func TestStaleVersionNotStored(t *testing.T) {
	c := New(1000)
	s0 := c.Stamp(nil)
	c.BumpShard(0)
	if c.Put("k", "V", 10, nil, s0) {
		t.Fatal("Put with a pre-bump stamp must be rejected")
	}
	if !c.Put("k", "V", 10, nil, c.Stamp(nil)) {
		t.Fatal("Put with the current stamp must succeed")
	}
}

// TestBumpShardIsSelective: advancing one shard's version drops exactly
// the entries whose queries touch that shard; results over other shards
// survive — the property sharded INSERT fan-out depends on.
func TestBumpShardIsSelective(t *testing.T) {
	c := New(1000)
	do := func(key string, shards []int, val string) {
		t.Helper()
		if _, out, err := c.Do(context.Background(), key, shards, func() (any, int64, error) {
			return val, 10, nil
		}); err != nil || out != Miss {
			t.Fatalf("Do(%q): out=%v err=%v", key, out, err)
		}
	}
	do("q0", []int{0}, "A")
	do("q1", []int{1}, "B")
	do("q01", []int{0, 1}, "C")
	c.BumpShard(1)
	if _, ok := c.Get("q0"); !ok {
		t.Fatal("shard-0 entry dropped by a shard-1 bump")
	}
	if _, ok := c.Get("q1"); ok {
		t.Fatal("shard-1 entry survived its shard's bump")
	}
	if _, ok := c.Get("q01"); ok {
		t.Fatal("cross-shard entry survived a touched shard's bump")
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 10 {
		t.Fatalf("post-bump accounting: %+v", st)
	}
}

// TestNegativeShard: a shard number below zero means shard 0 in Stamp,
// Put and BumpShard alike; nothing indexes the vector out of range.
func TestNegativeShard(t *testing.T) {
	c := New(1000)
	st := c.Stamp([]int{-1})
	if !c.Put("k", "v", 10, []int{-1}, st) {
		t.Fatal("Put under a negative shard should store")
	}
	c.BumpShard(-1)
	if got := c.Stats().ShardVersions; len(got) != 1 || got[0] != 1 {
		t.Fatalf("BumpShard(-1) should bump shard 0, versions = %v", got)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("an entry stamped under shard -1 survived the bump of shard 0")
	}
	if c.Put("k", "stale", 10, []int{-1}, st) {
		t.Fatal("stale stamp must not store")
	}
}

// TestBumpShardDuringFlightDropsResult: a flight touching the bumped
// shard must not store; a flight on another shard is untouched.
func TestBumpShardDuringFlightDropsResult(t *testing.T) {
	c := New(1000)
	inCompute := make(chan struct{})
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do(context.Background(), "q1", []int{1}, func() (any, int64, error) {
			close(inCompute)
			<-gate
			return "stale", 8, nil
		})
	}()
	<-inCompute
	c.BumpShard(1)
	close(gate)
	<-done
	if _, ok := c.Get("q1"); ok {
		t.Fatal("stale flight result cached across its shard's bump")
	}
	// An unrelated shard's value stores normally afterwards.
	if _, out, _ := c.Do(context.Background(), "q0", []int{0}, func() (any, int64, error) {
		return "ok", 8, nil
	}); out != Miss {
		t.Fatalf("q0 outcome %v", out)
	}
	if _, ok := c.Get("q0"); !ok {
		t.Fatal("shard-0 value should be cached")
	}
}

// TestSingleflightCollapse: N concurrent identical calls run exactly one
// compute; the rest share its value.
func TestSingleflightCollapse(t *testing.T) {
	c := New(1000)
	const n = 16
	var computes atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	outcomes := make([]Outcome, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, out, err := c.Do(context.Background(), "q", nil, func() (any, int64, error) {
				computes.Add(1)
				close(started) // exactly one compute may run, or this panics
				<-gate
				return "R", 8, nil
			})
			if err != nil || v != "R" {
				t.Errorf("worker %d: v=%v err=%v", i, v, err)
			}
			outcomes[i] = out
		}()
	}
	<-started // the leader is inside compute; now release it
	close(gate)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("%d computes ran, want 1", got)
	}
	var miss, shared, hit int
	for _, o := range outcomes {
		switch o {
		case Miss:
			miss++
		case Shared:
			shared++
		case Hit:
			hit++
		}
	}
	if miss != 1 {
		t.Fatalf("%d leaders, want 1 (shared=%d hit=%d)", miss, shared, hit)
	}
	// Everyone else either joined the flight or hit the cache afterwards.
	if shared+hit != n-1 {
		t.Fatalf("shared=%d hit=%d, want %d combined", shared, hit, n-1)
	}
	if st := c.Stats(); st.SharedHits != uint64(shared) {
		t.Fatalf("stats shared=%d, want %d", st.SharedHits, shared)
	}
}

// TestBumpDuringFlightDropsResult: a flight that started before an
// update commits must not populate the cache.
func TestBumpDuringFlightDropsResult(t *testing.T) {
	c := New(1000)
	inCompute := make(chan struct{})
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, out, err := c.Do(context.Background(), "q", nil, func() (any, int64, error) {
			close(inCompute)
			<-gate
			return "stale", 8, nil
		})
		if err != nil || out != Miss {
			t.Errorf("leader: out=%v err=%v", out, err)
		}
	}()
	<-inCompute
	c.BumpShard(0) // the update commits mid-flight
	close(gate)
	<-done
	if _, ok := c.Get("q"); ok {
		t.Fatal("stale flight result was cached across a bump")
	}
}

// TestFollowerAfterBumpDoesNotJoinStaleFlight: a call that starts after
// the update must not share a pre-update flight's result.
func TestFollowerAfterBumpDoesNotJoinStaleFlight(t *testing.T) {
	c := New(1000)
	inCompute := make(chan struct{})
	gate := make(chan struct{})
	go c.Do(context.Background(), "q", nil, func() (any, int64, error) {
		close(inCompute)
		<-gate
		return "stale", 8, nil
	})
	<-inCompute
	c.BumpShard(0)

	// This call starts after the bump: it must compute its own answer,
	// not wait on (or share) the stale flight.
	fresh := make(chan Outcome, 1)
	go func() {
		_, out, err := c.Do(context.Background(), "q", nil, func() (any, int64, error) {
			return "fresh", 8, nil
		})
		if err != nil {
			t.Errorf("fresh call: %v", err)
		}
		fresh <- out
	}()
	out := <-fresh // completes without the stale leader ever finishing
	if out != Miss {
		t.Fatalf("post-bump call outcome %v, want miss (own compute)", out)
	}
	if v, ok := c.Get("q"); !ok || v != "fresh" {
		t.Fatalf("cached value %v, want fresh", v)
	}
	close(gate)
}

// TestFollowerFallbackOnLeaderError: errors are not shared or cached.
func TestFollowerFallbackOnLeaderError(t *testing.T) {
	c := New(1000)
	boom := errors.New("boom")
	inCompute := make(chan struct{})
	gate := make(chan struct{})
	go c.Do(context.Background(), "q", nil, func() (any, int64, error) {
		close(inCompute)
		<-gate
		return nil, 0, boom
	})
	<-inCompute

	follower := make(chan error, 1)
	var followerComputed atomic.Bool
	go func() {
		v, _, err := c.Do(context.Background(), "q", nil, func() (any, int64, error) {
			followerComputed.Store(true)
			return "ok", 2, nil
		})
		if err == nil && v != "ok" {
			t.Errorf("follower got %v", v)
		}
		follower <- err
	}()
	close(gate)
	if err := <-follower; err != nil {
		t.Fatalf("follower inherited the leader's error: %v", err)
	}
	if !followerComputed.Load() {
		t.Fatal("follower should have computed independently")
	}
	if v, ok := c.Get("q"); !ok || v != "ok" {
		t.Fatal("follower's own result should be cached")
	}
}

// TestFollowerCancellation: a waiting follower honors its context.
func TestFollowerCancellation(t *testing.T) {
	c := New(1000)
	inCompute := make(chan struct{})
	gate := make(chan struct{})
	defer close(gate)
	go c.Do(context.Background(), "q", nil, func() (any, int64, error) {
		close(inCompute)
		<-gate
		return "R", 2, nil
	})
	<-inCompute
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, "q", nil, func() (any, int64, error) {
		t.Error("cancelled follower must not compute")
		return nil, 0, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestConcurrentChurn hammers Do/BumpShard/Get from many goroutines; run
// under -race this is the memory-safety check for the whole package.
func TestConcurrentChurn(t *testing.T) {
	c := New(1 << 12)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				key := fmt.Sprintf("k%d", (g+i)%7)
				switch i % 13 {
				case 5, 7:
					c.BumpShard(i % 3)
				case 9:
					c.Get(key)
				default:
					c.Do(context.Background(), key, []int{i % 3}, func() (any, int64, error) {
						return i, 64, nil
					})
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes < 0 || st.Bytes > 1<<12 {
		t.Fatalf("byte accounting off: %+v", st)
	}
}

// TestHitAllocatesNothing: answering from the cache, through Do or Get,
// allocates nothing — the page cache is consulted once per table per
// statement.
func TestHitAllocatesNothing(t *testing.T) {
	c := New(1000)
	compute := func() (any, int64, error) { return "V", 8, nil }
	ctx := context.Background()
	for _, shards := range [][]int{nil, {3}} {
		if _, _, err := c.Do(ctx, "k", shards, compute); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, out, _ := c.Do(ctx, "k", shards, compute); out != Hit {
				t.Fatalf("outcome %v, want hit", out)
			}
		}); n != 0 {
			t.Fatalf("shards %v: Do hit allocates %.0f times", shards, n)
		}
		if n := testing.AllocsPerRun(100, func() { c.Get("k") }); n != 0 {
			t.Fatalf("Get hit allocates %.0f times", n)
		}
		c.BumpShard(0) // the next round recomputes "k" under shard 3
	}
}
