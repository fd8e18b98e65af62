package metrics

import (
	"testing"
	"time"

	"ghostdb/internal/bus"
	"ghostdb/internal/flash"
)

func testDevice() *flash.Device {
	return flash.MustDevice(flash.Params{PageSize: 2048, PagesPerBlock: 4, Blocks: 16, ReserveBlocks: 2})
}

func testRig(t *testing.T) (*flash.Device, *bus.Channel, *Collector) {
	t.Helper()
	dev := testDevice()
	ch := bus.NewChannel(1.0)
	return dev, ch, NewCollector(dev, ch, DefaultModel())
}

// opOf returns the named span's entry of col.Ops(), zero when absent.
func opOf(col *Collector, name string) Op {
	for _, op := range col.Ops() {
		if op.Name == name {
			return op
		}
	}
	return Op{}
}

// opNames lists col.Ops()'s names in order.
func opNames(col *Collector) []string {
	var out []string
	for _, op := range col.Ops() {
		out = append(out, op.Name)
	}
	return out
}

func TestIOTimeMath(t *testing.T) {
	m := DefaultModel()
	s := Sample{Flash: flash.Counters{PageReads: 4, PageWrites: 2, BytesToRAM: 1000}}
	want := 4*25*time.Microsecond + 2*200*time.Microsecond + 1000*50*time.Nanosecond
	if got := m.IOTime(s); got != want {
		t.Fatalf("IOTime = %v, want %v", got, want)
	}
}

func TestCommTimeMath(t *testing.T) {
	m := DefaultModel()
	s := Sample{BusDown: 1_000_000, BusUp: 500_000}
	// 1.5MB at 1.5 MB/s = 1s.
	if got := m.CommTime(s, 1.5); got != time.Second {
		t.Fatalf("CommTime = %v, want 1s", got)
	}
	if m.CommTime(s, 0) != 0 {
		t.Fatal("zero throughput should cost nothing")
	}
}

func TestSpanAttribution(t *testing.T) {
	dev, ch, col := testRig(t)
	pg, _ := dev.Alloc()
	buf := make([]byte, 2048)
	err := col.Span("outer", func() error {
		if err := dev.Write(pg, buf); err != nil { // outer's own write
			return err
		}
		return col.Span("inner", func() error {
			return dev.ReadFull(pg, buf) // inner's read
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = ch
	in := opOf(col, "inner").Sample
	out := opOf(col, "outer").Sample
	if in.Flash.PageReads != 1 || in.Flash.PageWrites != 0 {
		t.Fatalf("inner = %+v", in.Flash)
	}
	if out.Flash.PageWrites != 1 || out.Flash.PageReads != 0 {
		t.Fatalf("outer = %+v (must exclude inner)", out.Flash)
	}
	if got := opOf(col, "outer").Sim; got != 200*time.Microsecond {
		t.Fatalf("outer time = %v", got)
	}
}

func TestSpanAccumulatesAcrossCalls(t *testing.T) {
	dev, _, col := testRig(t)
	pg, _ := dev.Alloc()
	buf := make([]byte, 2048)
	for i := 0; i < 3; i++ {
		_ = col.Span("w", func() error { return dev.Write(pg, buf) })
	}
	if w := opOf(col, "w").Sample.Flash; w.PageWrites != 3 {
		t.Fatalf("accumulated = %+v", w)
	}
	names := opNames(col)
	if len(names) != 1 || names[0] != "w" {
		t.Fatalf("names = %v", names)
	}
}

func TestResetPanicsWithOpenSpans(t *testing.T) {
	_, _, col := testRig(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_ = col.Span("open", func() error {
		col.Reset()
		return nil
	})
}

func TestBreakdown(t *testing.T) {
	dev, _, col := testRig(t)
	pg, _ := dev.Alloc()
	buf := make([]byte, 2048)
	_ = col.Span("Merge", func() error { return dev.Write(pg, buf) })
	_ = col.Span("SJoin", func() error { return dev.ReadFull(pg, buf) })
	ops := col.Ops()
	if len(ops) != 2 || ops[0].Name != "Merge" || ops[1].Name != "SJoin" {
		t.Fatalf("ops = %+v, want Merge then SJoin", ops)
	}
	if m := ops[0].Sample.Flash; m.PageWrites != 1 || m.PageReads != 0 {
		t.Fatalf("Merge = %+v, want one write", m)
	}
	if s := ops[1].Sample.Flash; s.PageReads != 1 || s.PageWrites != 0 {
		t.Fatalf("SJoin = %+v, want one read", s)
	}
	io := DefaultModel().IOTime(ops[0].Sample)
	if io != 200*time.Microsecond {
		t.Fatalf("merge = %v", io)
	}
	// No bus activity: the full simulated time is the I/O time alone.
	if ops[0].Sim != io {
		t.Fatalf("Merge sim time %v, want its I/O time %v", ops[0].Sim, io)
	}
}
