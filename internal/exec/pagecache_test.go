package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"ghostdb/internal/bus"
	"ghostdb/internal/flash"
)

// pcTestOpts are the engine options the page-cache parity tests share;
// the cache-off arm uses them verbatim, the cache-on arm adds
// PageCacheBytes.
func pcTestOpts() Options {
	return Options{
		FlashParams: flash.Params{PageSize: 2048, PagesPerBlock: 16, Blocks: 8192, ReserveBlocks: 4},
	}
}

// minBusDownDropPct is the page cache's acceptance floor: on a
// repeating workload the cache-on arm must cut total Down bus bytes by
// at least this percentage.
const minBusDownDropPct = 20.0

// pcTestQueries mixes spool-eligible shapes (projected visible values,
// hidden predicates forcing exact id work) with streamed-only ones, so
// both the header-reuse path and the always-ship path are exercised.
var pcTestQueries = []string{
	"SELECT T0.v1, T0.h1 FROM T0 WHERE T0.v2 < '0000000500'",
	"SELECT T0.id, T0.h2 FROM T0 WHERE T0.v3 BETWEEN '0000000100' AND '0000000700'",
	"SELECT T1.v1, T1.h2 FROM T0, T1 WHERE T0.fk1 = T1.id AND T0.v1 < '0000000400' AND T1.h1 < '0000000600'",
	"SELECT T0.v2 FROM T0 WHERE T0.h1 < '0000000300'",
	"SELECT T0.v1, T1.v2 FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.v3 < '0000000500'",
}

// TestPageCacheByteParityAndSavings runs the identical statement
// sequence against a cache-on and a cache-off engine over the same
// data. The contract of PR 10: answers are identical, the uplink audit
// trail is byte-for-byte identical (the cache must add no new Up
// traffic — the query text remains the only leak), and the cache-on
// arm moves at least minBusDownDropPct fewer Down bytes in strictly
// less simulated time.
func TestPageCacheByteParityAndSavings(t *testing.T) {
	cards := map[string]int{"T0": 1200, "T1": 150, "T2": 120, "T11": 40, "T12": 40}
	cold := newFixtureOpts(t, 99, cards, pcTestOpts())
	warmOpts := pcTestOpts()
	warmOpts.PageCacheBytes = 8 << 20
	warm := newFixtureOpts(t, 99, cards, warmOpts)

	// The per-query cost collector resets the channel audit trail at
	// each query start, so the full trails are stitched together run by
	// run.
	var uw, uc []bus.Record
	for round := 0; round < 3; round++ {
		for qi, sql := range pcTestQueries {
			rw, err := warm.db.Run(sql)
			if err != nil {
				t.Fatalf("round %d warm %q: %v", round, sql, err)
			}
			uw = append(uw, warm.db.Bus.UplinkRecords()...)
			rc, err := cold.db.Run(sql)
			if err != nil {
				t.Fatalf("round %d cold %q: %v", round, sql, err)
			}
			uc = append(uc, cold.db.Bus.UplinkRecords()...)
			if !rowsEqual(rw.Rows, rc.Rows) {
				t.Fatalf("round %d query %d: cached answer has %d rows, cold %d",
					round, qi, len(rw.Rows), len(rc.Rows))
			}
		}
	}

	if len(uw) != len(uc) {
		t.Fatalf("uplink record counts differ: cached %d vs cold %d", len(uw), len(uc))
	}
	for i := range uw {
		if uw[i].Kind != uc[i].Kind || uw[i].Bytes != uc[i].Bytes || uw[i].Payload != uc[i].Payload {
			t.Fatalf("uplink record %d differs: cached %+v vs cold %+v", i, uw[i], uc[i])
		}
	}

	wt, ct := warm.db.Totals(), cold.db.Totals()
	if drop := 100 * (float64(ct.BusDown) - float64(wt.BusDown)) / float64(ct.BusDown); drop < minBusDownDropPct {
		t.Fatalf("page cache saved %.1f%% of Down bytes, want >= %.0f%%: cached %d vs cold %d",
			drop, minBusDownDropPct, wt.BusDown, ct.BusDown)
	}
	if wt.SimTime >= ct.SimTime {
		t.Fatalf("page cache did not lower simulated time: cached %v vs cold %v", wt.SimTime, ct.SimTime)
	}
	if hits := warm.db.PageCacheStats().Hits; hits == 0 {
		t.Fatal("page cache recorded no hits over a repeating workload")
	}
	if warm.db.BusCoalesced() == 0 {
		t.Fatal("no Down payload rode a batched transfer")
	}
	if w, c := warm.db.PrefetchInflight(), cold.db.PrefetchInflight(); w != 0 || c != 0 {
		t.Fatalf("prefetch inflight gauges = %d cached, %d cold after quiesce, want 0", w, c)
	}
	if warm.db.RAM.InUse() != 0 || cold.db.RAM.InUse() != 0 {
		t.Fatal("RAM grant leak after page-cache workload")
	}
}

// TestPageCacheInvalidationStaysExact interleaves inserts with repeated
// queries on a cache-on engine: every committed write bumps the shard
// version, so no repeat may ever be answered from a stale frame or a
// stale retained spool.
func TestPageCacheInvalidationStaysExact(t *testing.T) {
	cards := map[string]int{"T0": 400, "T1": 80, "T2": 60, "T11": 20, "T12": 20}
	opts := pcTestOpts()
	opts.PageCacheBytes = 4 << 20
	f := newFixtureOpts(t, 7, cards, opts)
	rng := rand.New(rand.NewSource(41))
	nT1, nT2 := cards["T1"], cards["T2"]

	sqls := []string{
		"SELECT T0.v1, T0.h1 FROM T0 WHERE T0.v2 < '0000000500'",
		"SELECT T0.id, T0.v3 FROM T0 WHERE T0.h2 < '0000000400'",
	}
	check := func(when string) {
		for _, sql := range sqls {
			want := f.refAnswer(t, sql)
			res, err := f.db.Run(sql)
			if err != nil {
				t.Fatalf("%s: %s: %v", when, sql, err)
			}
			if !rowsEqual(res.Rows, want) {
				t.Fatalf("%s: %s: %d rows, want %d", when, sql, len(res.Rows), len(want))
			}
		}
	}

	check("cold")
	check("warm") // repeats may reuse retained spools now
	t0, _ := f.sch.Lookup("T0")
	t1, _ := f.sch.Lookup("T1")
	t2, _ := f.sch.Lookup("T2")
	for i := 0; i < 6; i++ {
		fk1, fk2 := rng.Intn(nT1), rng.Intn(nT2)
		var row []string
		for j := 0; j < 6; j++ {
			row = append(row, fmt.Sprintf("%010d", rng.Intn(1000)))
		}
		sql := fmt.Sprintf(
			"INSERT INTO T0 (fk1, fk2, v1, v2, v3, h1, h2, h3) VALUES (%d, %d, '%s', '%s', '%s', '%s', '%s', '%s')",
			fk1, fk2, row[0], row[1], row[2], row[3], row[4], row[5])
		if _, err := f.db.Run(sql); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		f.ref.Insert(t0.Index, mkRow(row...), map[int]uint32{
			t1.Index: uint32(fk1),
			t2.Index: uint32(fk2),
		})
		check(fmt.Sprintf("after insert %d", i))
	}
	if f.db.PageCacheStats().Invalidations == 0 {
		t.Fatal("inserts drove no page-cache invalidations")
	}
}

// TestCommitDropsRetainedSpools: the commit hook frees every spool the
// token retains, at once, rather than leaving them for a later lookup
// to notice. A visible-only UPDATE writes no flash page of its own, so
// the pages it frees are exactly the spools'; the repeat after it
// rebuilds its spool and answers as a cache-off engine does.
func TestCommitDropsRetainedSpools(t *testing.T) {
	cards := map[string]int{"T0": 400, "T1": 80, "T2": 60, "T11": 20, "T12": 20}
	cold := newFixtureOpts(t, 7, cards, pcTestOpts())
	opts := pcTestOpts()
	opts.PageCacheBytes = 4 << 20
	f := newFixtureOpts(t, 7, cards, opts)
	tok := f.db.tokens[0]
	const sql = "SELECT T0.v1, T0.h1 FROM T0 WHERE T0.v2 < '0000000500'"
	const update = "UPDATE T0 SET v1 = '0000000001' WHERE T0.v3 < '0000000100'"
	for i := 0; i < 2; i++ {
		if _, err := f.db.Run(sql); err != nil {
			t.Fatal(err)
		}
	}
	if len(tok.spools) == 0 {
		t.Fatal("a repeated spool-eligible query retained no spool")
	}
	spoolPages := 0
	for _, sp := range tok.spools {
		spoolPages += sp.file.Pages()
	}
	used := f.db.Dev.PagesUsed()
	for _, db := range []*DB{f.db, cold.db} {
		if _, err := db.Run(update); err != nil {
			t.Fatal(err)
		}
	}
	if len(tok.spools) != 0 {
		t.Fatalf("%d spools survived a commit", len(tok.spools))
	}
	if got, want := f.db.Dev.PagesUsed(), used-spoolPages; got != want {
		t.Fatalf("pages used after the commit = %d, want %d (%d before, %d spool pages)", got, want, used, spoolPages)
	}
	warm, err := f.db.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.db.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(warm.Rows, want.Rows) {
		t.Fatalf("after the commit: %d rows, cache-off engine %d", len(warm.Rows), len(want.Rows))
	}
	if len(tok.spools) == 0 {
		t.Fatal("the repeat after the commit retained no spool")
	}
}
