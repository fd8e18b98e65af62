package cache

// Versions is the per-shard data-version vector that both untrusted-side
// caches (this package's result cache and internal/pagecache's frame
// pool) stamp their entries with. Every committed write bumps the
// version of the one shard it touched; a wholesale invalidation bumps
// the epoch. An entry is fresh while the epoch and the versions of
// exactly the shards its key spans are what they were when it was
// stamped.
//
// Versions is not goroutine-safe: each cache holds one as a field and
// calls it under its own lock. A negative shard number means shard 0 and
// a shard beyond the vector reads as version 0, so no caller-supplied
// shard set can index out of range.
type Versions struct {
	shards []uint64 // per-shard data versions, grown on demand
	epoch  uint64   // wholesale-invalidation epoch
}

// NormShards defaults a nil/empty shard set to shard 0 (the unsharded
// engine's single token).
func NormShards(shards []int) []int {
	if len(shards) == 0 {
		return []int{0}
	}
	return shards
}

// Of returns one shard's current version (0 for a shard never bumped).
func (v *Versions) Of(shard int) uint64 {
	if shard = max(shard, 0); shard < len(v.shards) {
		return v.shards[shard]
	}
	return 0
}

// Stamp snapshots the epoch followed by the current versions of the
// given shards: stamp[0] = epoch, stamp[i+1] = version of shards[i].
func (v *Versions) Stamp(shards []int) []uint64 {
	out := make([]uint64, len(shards)+1)
	out[0] = v.epoch
	for i, s := range shards {
		out[i+1] = v.Of(s)
	}
	return out
}

// Fresh reports whether stamp, taken over shards, still matches.
func (v *Versions) Fresh(shards []int, stamp []uint64) bool {
	if len(stamp) != len(shards)+1 || stamp[0] != v.epoch {
		return false
	}
	for i, s := range shards {
		if stamp[i+1] != v.Of(s) {
			return false
		}
	}
	return true
}

// BumpAll advances the epoch, staling every stamp.
func (v *Versions) BumpAll() { v.epoch++ }

// BumpShard advances one shard's version and returns the shard actually
// bumped (0 for a negative one), so the caller sweeps the same one.
func (v *Versions) BumpShard(shard int) int {
	shard = max(shard, 0)
	for shard >= len(v.shards) {
		v.shards = append(v.shards, 0)
	}
	v.shards[shard]++
	return shard
}

// Sum is a monotone global stamp: every shard's version plus the epoch.
func (v *Versions) Sum() uint64 {
	sum := v.epoch
	for _, s := range v.shards {
		sum += s
	}
	return sum
}

// Snapshot copies the per-shard vector (index = shard).
func (v *Versions) Snapshot() []uint64 { return append([]uint64(nil), v.shards...) }
