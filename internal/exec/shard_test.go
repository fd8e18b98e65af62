package exec

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ghostdb/internal/cache"
	"ghostdb/internal/flash"
	"ghostdb/internal/schema"
)

// forestDefs is synthDefs plus a second, independent tree U0 -> U1: the
// smallest schema on which placement can split tables across tokens and
// queries can span them.
func forestDefs() []schema.TableDef {
	defs := synthDefs()
	defs = append(defs,
		schema.TableDef{Name: "U0", Columns: attrs(), Refs: []schema.Ref{
			{FKColumn: "fku1", Child: "U1", Hidden: true}}},
		schema.TableDef{Name: "U1", Columns: attrs()},
	)
	return defs
}

// newForestFixture loads the two-tree dataset into a DB with the given
// token count, plus a matching reference engine.
func newForestFixture(t testing.TB, seed uint64, cards map[string]int, shards int) *fixture {
	t.Helper()
	return newForestFixtureOpts(t, seed, cards, Options{
		FlashParams: flash.Params{PageSize: 2048, PagesPerBlock: 16, Blocks: 8192, ReserveBlocks: 4},
		Shards:      shards,
	})
}

// newForestFixtureOpts is newForestFixture with full control over the
// engine options (result cache, compaction threshold, ...).
func newForestFixtureOpts(t testing.TB, seed uint64, cards map[string]int, opts Options) *fixture {
	t.Helper()
	return newFixtureDefs(t, seed, forestDefs(), cards, opts)
}

func forestCards() map[string]int {
	return map[string]int{
		"T0": 600, "T1": 150, "T2": 120, "T11": 40, "T12": 40,
		"U0": 300, "U1": 50,
	}
}

// TestShardedPlacementSplitsTrees: with two tokens, the two trees land
// on different tokens, whole.
func TestShardedPlacementSplitsTrees(t *testing.T) {
	f := newForestFixture(t, 7, forestCards(), 2)
	place := f.db.Placement()
	tTree, _ := f.sch.Lookup("T0")
	uTree, _ := f.sch.Lookup("U0")
	if place.Of(tTree.Index) == place.Of(uTree.Index) {
		t.Fatalf("both trees on token %d", place.Of(tTree.Index))
	}
	for _, tb := range f.sch.Tables {
		root := f.sch.RootOf(tb.Index)
		if place.Of(tb.Index) != place.Of(root) {
			t.Fatalf("table %s split from its root", tb.Name)
		}
	}
}

// TestShardedSingleTreeRouting: in-tree queries (including joins) run as
// one session on the owning token and answer exactly like the reference.
func TestShardedSingleTreeRouting(t *testing.T) {
	f := newForestFixture(t, 7, forestCards(), 2)
	queries := []string{
		`SELECT T0.id, T0.v1 FROM T0 WHERE T0.h1 < '0000000300'`,
		`SELECT T0.id, T1.v2 FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.v1 < '0000000400' AND T1.h2 < '0000000500'`,
		`SELECT U0.id, U1.v1 FROM U0, U1 WHERE U0.fku1 = U1.id AND U1.h1 < '0000000400'`,
		`SELECT U1.id, U1.h2 FROM U1 WHERE U1.v2 < '0000000250'`,
	}
	for _, sql := range queries {
		res, err := f.db.Run(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		want := f.refAnswer(t, sql)
		if !rowsEqual(res.Rows, want) {
			t.Fatalf("%s: %d rows, want %d", sql, len(res.Rows), len(want))
		}
		if res.Stats.Scatter != 0 {
			t.Fatalf("%s: single-tree query scattered", sql)
		}
		first, _ := f.sch.Lookup(sql[7:9]) // harmless when lookup fails
		if first != nil {
			if want := f.db.Placement().Of(first.Index); res.Stats.Shard != want {
				t.Fatalf("%s: ran on token %d, placed on %d", sql, res.Stats.Shard, want)
			}
		}
	}
}

// TestScatterCrossProduct: forest queries fan out per-token sub-plans
// and the untrusted-side merge reproduces the reference cross product —
// including filter-only multiplicity parts and COUNT(*).
func TestScatterCrossProduct(t *testing.T) {
	cards := map[string]int{
		"T0": 120, "T1": 40, "T2": 30, "T11": 12, "T12": 12,
		"U0": 60, "U1": 10,
	}
	f := newForestFixture(t, 11, cards, 2)
	queries := []string{
		// Straight cross product of two selective sub-queries.
		`SELECT T12.id, U1.v1 FROM T12, U1 WHERE T12.h1 < '0000000200' AND U1.h2 < '0000000300'`,
		// Projections interleave tables from both trees.
		`SELECT U1.id, T12.v1, U1.h1, T12.id FROM T12, U1 WHERE T12.v2 < '0000000300' AND U1.v1 < '0000000500'`,
		// A filter-only tree contributes its count as a multiplicity.
		`SELECT U1.id FROM U1, T12 WHERE T12.h1 < '0000000150' AND U1.h1 < '0000000400'`,
		// Joins inside each tree, crossed between trees.
		`SELECT T0.id, U0.id, U1.v1 FROM T0, T1, U0, U1 ` +
			`WHERE T0.fk1 = T1.id AND U0.fku1 = U1.id ` +
			`AND T1.h1 < '0000000150' AND U1.h2 < '0000000200'`,
		// COUNT(*) over the cross product is the product of counts.
		`SELECT COUNT(*) FROM T12, U1 WHERE T12.h1 < '0000000200' AND U1.h2 < '0000000300'`,
	}
	for _, sql := range queries {
		res, err := f.db.Run(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		want := f.refAnswer(t, sql)
		if !rowsEqual(res.Rows, want) {
			t.Fatalf("%s: %d rows, want %d", sql, len(res.Rows), len(want))
		}
		if res.Stats.Scatter != 2 || res.Stats.Shard != -1 {
			t.Fatalf("%s: Scatter=%d Shard=%d, want fan-out over 2 tokens",
				sql, res.Stats.Scatter, res.Stats.Shard)
		}
	}
	// No leaked grants anywhere.
	for _, u := range f.db.Tokens() {
		tok := f.db.tokens[u.TokenID()]
		if tok.RAM.InUse() != 0 {
			t.Fatalf("token %d holds %d bytes after queries", u.TokenID(), tok.RAM.InUse())
		}
	}
	// Scatter plans explain themselves: per-token sub-plans and the
	// untrusted-side merge.
	stmt, err := f.db.Prepare(queries[0], QueryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out := stmt.Plan().Explain()
	for _, frag := range []string{"scatter: 2 per-token sub-plans", "part 0 (token", "part 1 (token"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("scatter EXPLAIN misses %q:\n%s", frag, out)
		}
	}
}

// TestShardedInsertRouting: an INSERT bumps exactly the owning token's
// shard version in both untrusted-side caches and leaves the other
// token's untouched.
func TestShardedInsertRouting(t *testing.T) {
	f := newForestFixtureOpts(t, 7, forestCards(), Options{
		FlashParams:      flash.Params{PageSize: 2048, PagesPerBlock: 16, Blocks: 8192, ReserveBlocks: 4},
		Shards:           2,
		ResultCacheBytes: 1 << 20,
		PageCacheBytes:   1 << 20,
	})
	u1, _ := f.sch.Lookup("U1")
	uTok := f.db.Placement().Of(u1.Index)
	rows := f.db.Rows(u1.Index)
	sql := `INSERT INTO U1 VALUES ('0000000001','0000000002','0000000003','0000000004','0000000005','0000000006')`
	if _, err := f.db.Run(sql); err != nil {
		t.Fatal(err)
	}
	if got := f.db.Rows(u1.Index); got != rows+1 {
		t.Fatalf("U1 rows = %d, want %d", got, rows+1)
	}
	for name, st := range map[string]cache.Stats{"result": f.db.CacheStats(), "page": f.db.PageCacheStats()} {
		for tok := 0; tok < 2; tok++ {
			var want, got uint64
			if tok == uTok {
				want = 1
			}
			if tok < len(st.ShardVersions) {
				got = st.ShardVersions[tok]
			}
			if got != want {
				t.Fatalf("%s cache: token %d version = %d, want %d", name, tok, got, want)
			}
		}
	}
}

// TestShardedTotalsParity: the same serial query set on a 1-token and a
// 2-token database moves exactly the same flash pages and bus bytes —
// summed across tokens, sharding adds zero secure-side work.
func TestShardedTotalsParity(t *testing.T) {
	cards := forestCards()
	queries := []string{
		`SELECT T0.id, T1.v2 FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.v1 < '0000000400' AND T1.h2 < '0000000500'`,
		`SELECT U0.id, U1.v1 FROM U0, U1 WHERE U0.fku1 = U1.id AND U1.h1 < '0000000400'`,
		`SELECT T11.id, T11.h1 FROM T11 WHERE T11.v1 < '0000000600'`,
		`SELECT U1.id, U1.h2 FROM U1 WHERE U1.v2 < '0000000250'`,
	}
	sum := func(shards int) (flashOps, busBytes uint64, tokens int) {
		f := newForestFixture(t, 7, cards, shards)
		for _, sql := range queries {
			if _, err := f.db.Run(sql); err != nil {
				t.Fatalf("shards=%d %s: %v", shards, sql, err)
			}
		}
		for _, tot := range f.db.TokenTotals() {
			flashOps += tot.Flash.PageReads + tot.Flash.PageWrites
			busBytes += tot.BusDown + tot.BusUp
			tokens++
		}
		return
	}
	f1, b1, _ := sum(1)
	f2, b2, n2 := sum(2)
	if n2 != 2 {
		t.Fatalf("expected 2 token totals, got %d", n2)
	}
	if f1 != f2 || b1 != b2 {
		t.Fatalf("sharded totals diverge: flash %d vs %d, bus %d vs %d", f1, f2, b1, b2)
	}
}

// TestPacedTokensOverlap holds sharding's scaling contract without
// leaning on host cores: the same shard-local statement list, pushed by
// 16 workers, finishes sooner on 4 paced tokens than on 1. Pacing turns
// each statement's simulated cost into a real sleep inside its token's
// execution slot, so one token serializes every sleep (~360 ms) while
// four tokens overlap them (~90 ms); the sleeps dwarf the host CPU a
// statement costs, which keeps the verdict the same on a single-core
// runner and under -race. The 3/4 margin makes the failure certain,
// not a coin toss, should the sleeps stop overlapping.
func TestPacedTokensOverlap(t *testing.T) {
	const trees, workers, perTree = 4, 16, 10
	var defs []schema.TableDef
	cards := map[string]int{}
	for k := 0; k < trees; k++ {
		s, c := fmt.Sprintf("S%d", k), fmt.Sprintf("C%d", k)
		defs = append(defs,
			schema.TableDef{Name: s, Columns: attrs(), Refs: []schema.Ref{{FKColumn: "fkc", Child: c, Hidden: true}}},
			schema.TableDef{Name: c, Columns: attrs()})
		cards[s], cards[c] = 300, 50
	}
	var stmts []string
	for i := 0; i < trees*perTree; i++ {
		k := i % trees
		stmts = append(stmts, fmt.Sprintf(
			`SELECT S%d.id, S%d.v1, S%d.h1, C%d.v1 FROM S%d, C%d WHERE S%d.fkc = C%d.id AND S%d.v1 < '%010d' AND C%d.h2 < '0000000500'`,
			k, k, k, k, k, k, k, k, k, 200+100*(i/trees%4), k))
	}

	run := func(tokens int) time.Duration {
		f := newFixtureDefs(t, 11, defs, cards, Options{
			FlashParams:          flash.Params{PageSize: 2048, PagesPerBlock: 16, Blocks: 8192, ReserveBlocks: 4},
			Shards:               tokens,
			MaxConcurrentQueries: workers,
			PaceSimulation:       0.5,
		})
		next := make(chan string)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for sql := range next {
					if _, err := f.db.Run(sql); err != nil {
						t.Errorf("%d tokens: %s: %v", tokens, sql, err)
					}
				}
			}()
		}
		for _, sql := range stmts {
			next <- sql
		}
		close(next)
		wg.Wait()
		wall := time.Since(start)
		for _, u := range f.db.Tokens() {
			if got := u.Totals().Queries; got != uint64(len(stmts)/tokens) {
				t.Errorf("%d tokens: token %d served %d statements, want %d", tokens, u.TokenID(), got, len(stmts)/tokens)
			}
		}
		if f.db.Leaked() {
			t.Errorf("%d tokens: RAM grants leaked", tokens)
		}
		return wall
	}
	one, four := run(1), run(4)
	if 4*four >= 3*one {
		t.Fatalf("4 paced tokens took %v, 1 token %v: pacing sleeps no longer overlap across tokens", four, one)
	}
}
