package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ghostdb/internal/flash"
	"ghostdb/internal/ram"
	"ghostdb/internal/schema"
)

// TestTinyRAMStaysCorrect: under severely constrained RAM the engine must
// either answer exactly or fail loudly — never return wrong rows. 16KB
// (8 buffers) forces heavy merge reduction and tiny MJoin batches.
func TestTinyRAMStaysCorrect(t *testing.T) {
	for _, budget := range []int{16 << 10, 24 << 10, 32 << 10} {
		f := newFixtureOpts(t, 21, map[string]int{"T0": 1500, "T1": 200, "T2": 150, "T11": 50, "T12": 50},
			Options{
				RAMBudget:   budget,
				FlashParams: flash.Params{PageSize: 2048, PagesPerBlock: 16, Blocks: 8192, ReserveBlocks: 4},
			})
		rng := rand.New(rand.NewSource(3))
		answered := 0
		for i := 0; i < 25; i++ {
			sql := randomQuery(rng)
			want := f.refAnswer(t, sql)
			res, err := f.db.Run(sql)
			if err != nil {
				// Allowed: explicit resource exhaustion only.
				if errors.Is(err, ram.ErrExhausted) ||
					errors.Is(err, ErrBloomInfeasible) ||
					containsRAMComplaint(err) {
					continue
				}
				t.Fatalf("budget %d: %s: unexpected error %v", budget, sql, err)
			}
			answered++
			if !rowsEqual(res.Rows, want) {
				t.Fatalf("budget %d: %s: wrong answer under RAM pressure (%d vs %d rows)",
					budget, sql, len(res.Rows), len(want))
			}
			if f.db.RAM.HighWater() > budget {
				t.Fatalf("budget %d exceeded: high water %d", budget, f.db.RAM.HighWater())
			}
		}
		if answered == 0 {
			t.Fatalf("budget %d: no query could be answered at all", budget)
		}
	}
}

func containsRAMComplaint(err error) bool {
	s := err.Error()
	for _, frag := range []string{"RAM", "not enough"} {
		if contains(s, frag) {
			return true
		}
	}
	return false
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestDeviceFullDuringQuery: a flash device with almost no free space
// must fail temp-segment allocation cleanly, not corrupt anything.
func TestDeviceFullDuringQuery(t *testing.T) {
	f := barelyFittingFixture(t, 0)
	fillDevice(f)
	_, err := f.db.Run(`SELECT T0.id, T1.v1 FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.v1 < '0000000300' AND T1.h1 < '0000000300'`)
	if err == nil {
		t.Fatal("query succeeded on a full device")
	}
	if !errors.Is(err, flash.ErrDeviceFull) {
		t.Fatalf("error should wrap ErrDeviceFull: %v", err)
	}
	// The engine must remain usable for queries that need no temp space.
	if f.db.RAM.InUse() != 0 || f.db.Leaked() {
		t.Fatalf("RAM leak after device-full failure: %d bytes in use, leaked %t",
			f.db.RAM.InUse(), f.db.Leaked())
	}
}

// TestDeviceFullInReductionPass: at the 7-buffer floor a forced
// Pre-Filter join's first flash writes are the Merge's sublist reduction
// passes, so on a full device the write fails inside a pass's stage,
// which holds both its spill-writer and its stream claims. The stage must
// return both on the error path.
func TestDeviceFullInReductionPass(t *testing.T) {
	f := barelyFittingFixture(t, minViableBuffers*2048)
	sql := `SELECT T0.id FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.v1 < '0000000300'`
	cfg := QueryConfig{Strategy: StratPre}
	res, err := f.db.RunCtx(context.Background(), sql, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Ops lists the operators in the order each first completed: nothing
	// before the Merge writes, and the Merge writes only its passes.
	for _, op := range res.Stats.Ops {
		if op.Name == spanMerge {
			if op.Sample.Flash.PageWrites == 0 {
				t.Fatal("the Merge wrote no reduction pass; the test needs one")
			}
			break
		}
		if op.Sample.Flash.PageWrites > 0 {
			t.Fatalf("%s writes %d pages before the Merge's first pass", op.Name, op.Sample.Flash.PageWrites)
		}
	}
	fillDevice(f)
	_, err = f.db.RunCtx(context.Background(), sql, cfg)
	if !errors.Is(err, flash.ErrDeviceFull) {
		t.Fatalf("error should wrap ErrDeviceFull: %v", err)
	}
	// The operators claim from the session's private budget; a session
	// released with claims outstanding counts as a leak of db.Leaked.
	if f.db.RAM.InUse() != 0 || f.db.Leaked() {
		t.Fatalf("a failed reduction pass kept RAM: %d bytes in use, leaked %t",
			f.db.RAM.InUse(), f.db.Leaked())
	}
}

// barelyFittingFixture loads the failure tests' dataset on the smallest
// device it fits, with a RAM budget of ramBudget bytes (0: the default).
func barelyFittingFixture(t *testing.T, ramBudget int) *fixture {
	cards := map[string]int{"T0": 1500, "T1": 200, "T2": 150, "T11": 50, "T12": 50}
	for try := 40; try < 200; try += 4 {
		var f *fixture
		func() {
			defer func() { recover() }()
			f = newFixtureOptsMaybe(t, 21, cards, Options{
				RAMBudget:   ramBudget,
				FlashParams: flash.Params{PageSize: 2048, PagesPerBlock: 16, Blocks: try, ReserveBlocks: 2},
			})
		}()
		if f != nil {
			t.Logf("loaded at %d blocks", try)
			return f
		}
	}
	t.Skip("could not find a barely-fitting device size")
	return nil
}

// fillDevice writes the device's remaining free pages so intermediates
// cannot be materialized.
func fillDevice(f *fixture) {
	for {
		pg, err := f.db.Dev.Alloc()
		if err != nil {
			return
		}
		if err := f.db.Dev.Write(pg, []byte{1}); err != nil {
			return
		}
	}
}

// newFixtureOptsMaybe is newFixtureOpts but returns nil on load failure
// instead of failing the test.
func newFixtureOptsMaybe(t testing.TB, seed uint64, cards map[string]int, opts Options) *fixture {
	t.Helper()
	sch, err := schema.New(synthDefs())
	if err != nil {
		t.Fatal(err)
	}
	rng := &lcg{s: seed}
	load := map[int]*TableLoad{}
	for _, tb := range sch.Tables {
		n := cards[tb.Name]
		ld := &TableLoad{Rows: n, FKs: map[int][]uint32{}}
		for _, col := range tb.Columns {
			w := col.EncodedWidth()
			data := make([]byte, n*w)
			for i := 0; i < n; i++ {
				if err := schema.EncodeValue(data[i*w:(i+1)*w], schema.CharVal(pad(rng.next(testDomain)))); err != nil {
					t.Fatal(err)
				}
			}
			ld.Cols = append(ld.Cols, ColData{Width: w, Data: data})
		}
		for _, ci := range tb.Children() {
			cn := cards[sch.Tables[ci].Name]
			fk := make([]uint32, n)
			for i := range fk {
				fk[i] = uint32(rng.next(cn))
			}
			ld.FKs[ci] = fk
		}
		load[tb.Index] = ld
	}
	db, err := NewDB(sch, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Load(load); err != nil {
		return nil
	}
	return &fixture{db: db, sch: sch}
}

// TestHugeRAMAlsoCorrect: a generous budget must not change answers (it
// only removes reduction passes and enlarges batches).
func TestHugeRAMAlsoCorrect(t *testing.T) {
	f := newFixtureOpts(t, 13, map[string]int{"T0": 800, "T1": 100, "T2": 80, "T11": 30, "T12": 30},
		Options{
			RAMBudget:   1 << 20,
			FlashParams: flash.Params{PageSize: 2048, PagesPerBlock: 16, Blocks: 8192, ReserveBlocks: 4},
		})
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20; i++ {
		sql := randomQuery(rng)
		want := f.refAnswer(t, sql)
		res, err := f.db.Run(sql)
		if err != nil {
			if errors.Is(err, ErrBloomInfeasible) {
				continue
			}
			t.Fatalf("%s: %v", sql, err)
		}
		if !rowsEqual(res.Rows, want) {
			t.Fatalf("%s: wrong answer with huge RAM", sql)
		}
	}
}

var _ = fmt.Sprintf
