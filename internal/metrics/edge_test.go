package metrics

import (
	"sync"
	"testing"
	"time"
)

// A span that performs no I/O at all (a zero-duration session in the
// simulated cost model) must still be recorded: zero sample, zero
// time, and the span still listed.
func TestZeroActivitySpan(t *testing.T) {
	_, _, col := testRig(t)
	if err := col.Span("idle", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	ops := col.Ops()
	if len(ops) != 1 || ops[0] != (Op{Name: "idle"}) {
		t.Fatalf("ops = %+v, want one zero-cost idle span", ops)
	}
}

// Nested zero-activity spans must not leak phantom costs into their
// parents: the parent's own sample stays zero too.
func TestZeroActivityNestedSpans(t *testing.T) {
	_, _, col := testRig(t)
	err := col.Span("outer", func() error {
		return col.Span("inner", func() error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range col.Ops() {
		if op.Sample != (Sample{}) || op.Sim != 0 {
			t.Fatalf("%s = %+v, want zero", op.Name, op)
		}
	}
	if n := opNames(col); len(n) != 2 {
		t.Fatalf("ops = %v, want inner and outer", n)
	}
}

// A span name never opened is absent from Ops, and a fresh or reset
// collector lists nothing.
func TestUnknownSpanIsZero(t *testing.T) {
	_, _, col := testRig(t)
	if ops := col.Ops(); len(ops) != 0 {
		t.Fatalf("fresh collector lists %+v", ops)
	}
	_ = col.Span("opened", func() error { return nil })
	if opOf(col, "never-opened") != (Op{}) {
		t.Fatal("unknown span should be absent")
	}
	col.Reset()
	if ops := col.Ops(); len(ops) != 0 {
		t.Fatalf("reset collector lists %+v", ops)
	}
}

// CommTime must treat non-positive throughput as free rather than
// dividing by zero or producing negative durations.
func TestCommTimeDegenerateThroughput(t *testing.T) {
	m := DefaultModel()
	s := Sample{BusDown: 1 << 20, BusUp: 1 << 20}
	for _, mbps := range []float64{0, -1, -0.001} {
		if got := m.CommTime(s, mbps); got != 0 {
			t.Fatalf("CommTime at %v MB/s = %v, want 0", mbps, got)
		}
	}
}

// Sample arithmetic round-trips: (a+b)-b == a, including at zero.
func TestSampleAddSubRoundTrip(t *testing.T) {
	a := Sample{BusDown: 7, BusUp: 3}
	a.Flash.PageReads = 11
	b := Sample{BusDown: 2, BusUp: 1}
	b.Flash.PageWrites = 5
	if got := a.Add(b).Sub(b); got != a {
		t.Fatalf("(a+b)-b = %+v, want %+v", got, a)
	}
	var zero Sample
	if zero.Add(zero) != zero || zero.Sub(zero) != zero {
		t.Fatal("zero sample arithmetic must stay zero")
	}
}

// Once collection has quiesced, every snapshot accessor is read-only
// and may be hit from many goroutines at once; this test exists to run
// under -race.
func TestConcurrentSnapshots(t *testing.T) {
	dev, _, col := testRig(t)
	pg, _ := dev.Alloc()
	buf := make([]byte, 2048)
	for _, name := range []string{"Merge", "SJoin", "Project"} {
		if err := col.Span(name, func() error { return dev.Write(pg, buf) }); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ops := col.Ops()
				if len(ops) != 3 {
					t.Errorf("ops = %+v", ops)
					return
				}
				if ops[0].Sample.Flash.PageWrites != 1 {
					t.Error("Merge sample changed under read-only access")
					return
				}
				if ops[1].Sim != 200*time.Microsecond {
					t.Error("SJoin time changed under read-only access")
					return
				}
				_ = col.ThroughputMBps()
			}
		}()
	}
	wg.Wait()
}
