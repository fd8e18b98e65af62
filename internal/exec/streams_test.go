package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ghostdb/internal/bus"
	"ghostdb/internal/flash"
	"ghostdb/internal/metrics"
	"ghostdb/internal/query"
	"ghostdb/internal/ram"
	"ghostdb/internal/schema"
	"ghostdb/internal/sqlparse"
)

// randomSortedIDs draws n distinct ascending ids; with edge set, from the
// two ends of the uint32 range (0 and ^uint32(0) included), where a
// signed or 32-bit-wrapping head comparison would go wrong.
func randomSortedIDs(rng *rand.Rand, n int, edge bool) []uint32 {
	seen := map[uint32]bool{}
	for len(seen) < n {
		v := uint32(rng.Intn(4 * (n + 16)))
		if edge {
			v = uint32(rng.Intn(40))
			if rng.Intn(2) == 0 {
				v = ^uint32(0) - v
			}
		}
		seen[v] = true
	}
	ids := make([]uint32, 0, n)
	for v := range seen {
		ids = append(ids, v)
	}
	slices.Sort(ids)
	return ids
}

// TestUnionStreamMatchesSortDedupProperty holds the heap union to its
// specification — sort and deduplicate the concatenated inputs — over
// random fan-ins k in [1, 64], with duplicates across sources, empty
// sources and sources of very different lengths (exhausted early).
func TestUnionStreamMatchesSortDedupProperty(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(64)
		edge := seed%3 == 0
		var srcs []idStream
		var want []uint32
		for i := 0; i < k; i++ {
			n := 0
			switch rng.Intn(4) {
			case 0: // empty source
			case 1:
				n = 1 + rng.Intn(3)
			default:
				n = rng.Intn(60)
			}
			if edge && n > 30 {
				n = 30
			}
			ids := randomSortedIDs(rng, n, edge)
			srcs = append(srcs, newSliceStream(ids))
			want = append(want, ids...)
		}
		slices.Sort(want)
		want = slices.Compact(want)
		var u unionStream
		if err := u.init(srcs); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := drain(&u)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: k=%d: union yields %d ids, sort-dedup %d\n got  %v\n want %v", seed, k, len(got), len(want), got, want)
		}
		if v, ok, err := u.next(); ok || err != nil {
			t.Fatalf("seed %d: drained union yields (%d, %v, %v)", seed, v, ok, err)
		}
	}
}

// TestUnionStreamRejectsUnsortedSource: an id out of order (or repeated)
// inside one source is an error, wherever the source sits in the heap.
func TestUnionStreamRejectsUnsortedSource(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(64)
		bad := rng.Intn(k)
		var srcs []idStream
		for i := 0; i < k; i++ {
			ids := randomSortedIDs(rng, 2+rng.Intn(20), false)
			if i == bad {
				j := 1 + rng.Intn(len(ids)-1)
				if seed%2 == 0 {
					ids[j] = ids[j-1] // repeated id
				} else {
					ids[j-1], ids[j] = ids[j], ids[j-1]
				}
			}
			srcs = append(srcs, newSliceStream(ids))
		}
		var u unionStream
		err := u.init(srcs)
		if err == nil {
			_, err = drain(&u)
		}
		if err == nil || !strings.Contains(err.Error(), "unsorted sublist") {
			t.Fatalf("seed %d: k=%d, source %d out of order: err = %v", seed, k, bad, err)
		}
	}
}

// reduceRig is a queryRun with just what sublist reduction touches: a
// token (flash device, RAM budget, link), a session budget of the same
// size, a collector and the fan-in binding of that grant.
func reduceRig(buffers int) *queryRun {
	dev := flash.MustDevice(flash.Params{PageSize: 2048, PagesPerBlock: 64, Blocks: 4096, ReserveBlocks: 4})
	tok := &Token{Dev: dev, RAM: ram.NewManager(buffers*2048, 2048), Bus: bus.NewChannel(0)}
	return &queryRun{
		tok:  tok,
		ram:  ram.NewManager(buffers*2048, 2048),
		col:  metrics.NewCollector(dev, tok.Bus, metrics.DefaultModel()),
		bind: &Binding{GrantBuffers: buffers, CrossFanIn: buffers - 1},
	}
}

// loadRuns writes one sublist per id list into a fresh list segment.
func loadRuns(tb testing.TB, r *queryRun, lists [][]uint32) *runSet {
	seg := r.newTemp()
	var set runSet
	for _, ids := range lists {
		run, err := seg.AppendRun(ids)
		if err != nil {
			tb.Fatal(err)
		}
		set.add(&seg.ListSegment, run)
	}
	if err := seg.Seal(); err != nil {
		tb.Fatal(err)
	}
	return &set
}

// TestReductionTakesKSmallestByCountThenArrivalProperty replays random
// run lists (equal counts everywhere, overlapping ids) through
// consolidateRuns' passes and a model of the specification side by side:
// each pass must union exactly the k smallest sublists by (Count,
// arrival order), and the surviving sublists must hold every input id —
// none lost, none duplicated within a run.
func TestReductionTakesKSmallestByCountThenArrivalProperty(t *testing.T) {
	type modelRun struct {
		ids     []uint32
		arrival int
	}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := reduceRig(4 + rng.Intn(29))
		n := 2 + rng.Intn(150)
		lists := make([][]uint32, n)
		var model []modelRun
		for i := range lists {
			lists[i] = randomSortedIDs(rng, rng.Intn(6), false) // few distinct counts, some empty
			model = append(model, modelRun{ids: lists[i], arrival: i})
		}
		set := loadRuns(t, r, lists)
		maxRuns := 1 + rng.Intn(4)
		for pass := 0; set.len() > maxRuns; pass++ {
			k, err := r.unionFanIn(set.len(), set.len()-maxRuns, r.bind.CrossFanIn)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if err := r.unionSmallest(set, k, spanMerge); err != nil {
				t.Fatalf("seed %d pass %d: %v", seed, pass, err)
			}
			// The specification: a stable sort by Count over arrival order.
			slices.SortStableFunc(model, func(a, b modelRun) int { return len(a.ids) - len(b.ids) })
			var union []uint32
			for _, m := range model[:k] {
				union = append(union, m.ids...)
			}
			slices.Sort(union)
			union = slices.Compact(union)
			model = append(model[k:], modelRun{ids: union, arrival: n + pass})
			slices.SortFunc(model, func(a, b modelRun) int { return a.arrival - b.arrival })

			if set.len() != len(model) {
				t.Fatalf("seed %d pass %d: %d sublists live, model has %d", seed, pass, set.len(), len(model))
			}
			live := map[int]sublist{}
			for _, key := range set.live {
				live[int(uint32(key))] = set.subs[uint32(key)]
			}
			for _, m := range model {
				sub, ok := live[m.arrival]
				if !ok {
					t.Fatalf("seed %d pass %d (k=%d): sublist of arrival %d (count %d) was consumed, the model keeps it",
						seed, pass, k, m.arrival, len(m.ids))
				}
				got, err := sub.seg.ReadAll(sub.run)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, m.ids) {
					t.Fatalf("seed %d pass %d (k=%d): sublist of arrival %d holds %v, model %v", seed, pass, k, m.arrival, got, m.ids)
				}
			}
		}
		if r.ram.Leaked() {
			t.Fatalf("seed %d: reduction leaked RAM grants", seed)
		}
		if free := len(r.tok.freePages); free > r.tok.RAM.Buffers() {
			t.Fatalf("seed %d: %d page buffers on the free list, budget is %d", seed, free, r.tok.RAM.Buffers())
		}
	}
}

func BenchmarkUnionStream(b *testing.B) {
	for _, k := range []int{2, 8, 28} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(k)))
			lists := make([][]uint32, k)
			total := 0
			for i := range lists {
				lists[i] = randomSortedIDs(rng, 4096/k, false)
				total += len(lists[i])
			}
			srcs := make([]idStream, k)
			b.ReportAllocs()
			var u unionStream
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, ids := range lists {
					srcs[j] = newSliceStream(ids)
				}
				if err := u.init(srcs); err != nil {
					b.Fatal(err)
				}
				for {
					if _, ok, _ := u.next(); !ok {
						break
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*total), "ns/id")
		})
	}
}

// BenchmarkReduceRuns consolidates N ten-id sublists (the shape of a
// Pre-Filter climb) down to what a 32-buffer grant can open at once.
func BenchmarkReduceRuns(b *testing.B) {
	for _, n := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			r := reduceRig(32)
			lists := make([][]uint32, n)
			for i := range lists {
				lists[i] = make([]uint32, 10)
				for j := range lists[i] {
					lists[i][j] = uint32(i*10 + j)
				}
			}
			base := loadRuns(b, r, lists)
			var reads uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				set := runSet{subs: slices.Clone(base.subs), live: slices.Clone(base.live)}
				before := r.tok.Dev.Counters().PageReads
				if err := r.consolidateRuns(&set, r.ram.AvailableBuffers()-1, spanMerge); err != nil {
					b.Fatal(err)
				}
				reads += r.tok.Dev.Counters().PageReads - before
				b.StopTimer()
				for _, t := range r.temps[1:] {
					_ = t.Free()
				}
				r.temps = r.temps[:1]
				b.StartTimer()
			}
			b.ReportMetric(float64(reads)/float64(b.N), "page-reads/op")
		})
	}
}

// TestSeqClipMatchesFilterProperty holds the clipped anchor id sequence
// to its specification, the filter-only stream: for random anchor id
// predicates (every operator; literals negative, inside and past the row
// count, and at the int64 extremes; empty BETWEEN ranges), clipping the
// sequence and filtering what clip leaves yields the same ids as
// filtering the full sequence by every predicate.
func TestSeqClipMatchesFilterProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ops := []sqlparse.CompareOp{sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe, sqlparse.OpBetween}
	for trial := 0; trial < 3000; trial++ {
		n := uint32(rng.Intn(40))
		lit := func() schema.Value {
			switch rng.Intn(10) {
			case 0:
				return schema.IntVal(math.MinInt64)
			case 1:
				return schema.IntVal(math.MaxInt64)
			}
			return schema.IntVal(int64(rng.Intn(int(n)+10)) - 5)
		}
		preds := make([]query.Pred, rng.Intn(4))
		for i := range preds {
			preds[i] = query.Pred{ColIdx: query.IDCol, Hidden: true, Op: ops[rng.Intn(len(ops))], Lo: lit(), Hi: lit()}
		}
		var full idStream = &seqStream{n: n}
		for _, p := range preds {
			full = &filterStream{src: full, keep: idPredFilter(p)}
		}
		want, err := drain(full)
		if err != nil {
			t.Fatal(err)
		}
		seq := &seqStream{n: n}
		var clipped idStream = seq
		for _, p := range seq.clip(preds) {
			if p.Op != sqlparse.OpNe {
				t.Fatalf("clip left a %v predicate to the filter", p.Op)
			}
			clipped = &filterStream{src: clipped, keep: idPredFilter(p)}
		}
		got, err := drain(clipped)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d, %d rows, preds %+v: clipped %v, filter-only %v", trial, n, preds, got, want)
		}
	}
}
