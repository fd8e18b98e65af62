package cache

// versions is the per-shard data-version vector that both untrusted-side
// caches (the result cache and the page cache, two instances of Cache)
// stamp their entries with. Every committed write bumps the version of
// the one shard it touched. An entry is fresh while the versions of
// exactly the shards its key spans are what they were when it was
// stamped.
//
// versions is not goroutine-safe: each cache holds one as a field and
// calls it under its own lock. A negative shard number means shard 0 and
// a shard beyond the vector reads as version 0, so no caller-supplied
// shard set can index out of range.
type versions struct {
	shards []uint64 // per-shard data versions, grown on demand
}

// shard0 is the default shard set. It is shared and never written:
// entries copy their shard set, and flights only read it.
var shard0 = []int{0}

// normShards defaults a nil/empty shard set to shard 0 (the unsharded
// engine's single token).
func normShards(shards []int) []int {
	if len(shards) == 0 {
		return shard0
	}
	return shards
}

// Of returns one shard's current version (0 for a shard never bumped).
func (v *versions) Of(shard int) uint64 {
	if shard = max(shard, 0); shard < len(v.shards) {
		return v.shards[shard]
	}
	return 0
}

// Stamp snapshots the current versions of the given shards:
// stamp[i] = version of shards[i].
func (v *versions) Stamp(shards []int) []uint64 {
	out := make([]uint64, len(shards))
	for i, s := range shards {
		out[i] = v.Of(s)
	}
	return out
}

// Fresh reports whether stamp, taken over shards, still matches.
func (v *versions) Fresh(shards []int, stamp []uint64) bool {
	if len(stamp) != len(shards) {
		return false
	}
	for i, s := range shards {
		if stamp[i] != v.Of(s) {
			return false
		}
	}
	return true
}

// BumpShard advances one shard's version and returns the shard actually
// bumped (0 for a negative one), so the caller sweeps the same one.
func (v *versions) BumpShard(shard int) int {
	shard = max(shard, 0)
	for shard >= len(v.shards) {
		v.shards = append(v.shards, 0)
	}
	v.shards[shard]++
	return shard
}

// Sum is a monotone global stamp: the sum of every shard's version.
func (v *versions) Sum() uint64 {
	var sum uint64
	for _, s := range v.shards {
		sum += s
	}
	return sum
}

// Snapshot copies the per-shard vector (index = shard).
func (v *versions) Snapshot() []uint64 { return append([]uint64(nil), v.shards...) }
