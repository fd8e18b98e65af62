package exec

import (
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
	// Device sized so the load fits but leaves almost no headroom for
	// intermediate results.
	cards := map[string]int{"T0": 1500, "T1": 200, "T2": 150, "T11": 50, "T12": 50}
	var f *fixture
	blocks := 0
	for try := 40; try < 200; try += 4 {
		func() {
			defer func() { recover() }()
			g := newFixtureOptsMaybe(t, 21, cards, Options{
				FlashParams: flash.Params{PageSize: 2048, PagesPerBlock: 16, Blocks: try, ReserveBlocks: 2},
			})
			if g != nil {
				f = g
				blocks = try
			}
		}()
		if f != nil {
			break
		}
	}
	if f == nil {
		t.Skip("could not find a barely-fitting device size")
	}
	t.Logf("loaded at %d blocks", blocks)
	// Fill the remaining space so intermediates cannot be materialized.
	for {
		pg, err := f.db.Dev.Alloc()
		if err != nil {
			break
		}
		if err := f.db.Dev.Write(pg, []byte{1}); err != nil {
			break
		}
	}
	_, err := f.db.Run(`SELECT T0.id, T1.v1 FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.v1 < '0000000300' AND T1.h1 < '0000000300'`)
	if err == nil {
		t.Fatal("query succeeded on a full device")
	}
	if !errors.Is(err, flash.ErrDeviceFull) {
		t.Fatalf("error should wrap ErrDeviceFull: %v", err)
	}
	// The engine must remain usable for queries that need no temp space.
	if f.db.RAM.InUse() != 0 {
		t.Fatalf("RAM leak after device-full failure: %d", f.db.RAM.InUse())
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
