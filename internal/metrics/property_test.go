package metrics

import (
	"math/rand"
	"reflect"
	"testing"

	"ghostdb/internal/bus"
	"ghostdb/internal/flash"
)

// refCollector is the map-keyed collector this package had before names
// were interned to slots: the specification the property test holds the
// slot-based one to.
type refCollector struct {
	now   func() Sample
	spans map[string]Sample
	order []string
}

func (c *refCollector) span(name string, f func(child *Sample)) Sample {
	start := c.now()
	var child Sample
	f(&child)
	total := c.now().Sub(start)
	if _, seen := c.spans[name]; !seen {
		c.order = append(c.order, name)
	}
	c.spans[name] = c.spans[name].Add(total.Sub(child))
	return total
}

// TestSpanTreesMatchReferenceProperty drives random nested span trees,
// with flash and bus activity at every level, through the collector and
// the reference at once: each name's own-cost sample and simulated time,
// the first-completed Ops() order and the exact decomposition (samples sum to the device
// and bus totals) must agree.
func TestSpanTreesMatchReferenceProperty(t *testing.T) {
	names := []string{"Vis", "CI", "Merge", "SJoin", "BF", "Store", "Project", "Bus"}
	for seed := int64(1); seed <= 50; seed++ {
		dev, ch, col := testRig(t)
		ref := &refCollector{spans: map[string]Sample{}}
		ref.now = col.now
		rng := rand.New(rand.NewSource(seed))
		pg, _ := dev.Alloc()
		buf := make([]byte, 2048)
		if err := dev.Write(pg, buf); err != nil {
			t.Fatal(err)
		}
		col.Reset()
		work := func() {
			for i := rng.Intn(3); i > 0; i-- {
				switch rng.Intn(3) {
				case 0:
					_ = dev.Read(pg, buf, 1+rng.Intn(2048))
				case 1:
					_ = dev.Write(pg, buf)
				default:
					_ = ch.Transfer(bus.Down, "vis-ids", rng.Intn(500), "")
				}
			}
		}
		var tree func(depth int, parent *Sample)
		tree = func(depth int, parent *Sample) {
			for i := rng.Intn(4); i > 0; i-- {
				name := names[rng.Intn(len(names))]
				_ = col.Span(name, func() error {
					total := ref.span(name, func(child *Sample) {
						work()
						if depth < 3 {
							tree(depth+1, child)
						}
						work()
					})
					*parent = parent.Add(total)
					return nil
				})
			}
		}
		var top Sample
		for len(ref.order) == 0 {
			tree(0, &top)
		}
		if got := opNames(col); !reflect.DeepEqual(got, ref.order) {
			t.Fatalf("seed %d: Ops() order = %v, reference order %v", seed, got, ref.order)
		}
		var sum Sample
		for _, op := range col.Ops() {
			want := ref.spans[op.Name]
			if op.Sample != want {
				t.Fatalf("seed %d: span %s = %+v, reference %+v", seed, op.Name, op.Sample, want)
			}
			if sim := DefaultModel().Time(want, col.ThroughputMBps()); op.Sim != sim {
				t.Fatalf("seed %d: span %s sim %v, reference %v", seed, op.Name, op.Sim, sim)
			}
			sum = sum.Add(op.Sample)
		}
		if sum != top || sum != col.now() {
			t.Fatalf("seed %d: spans sum to %+v, top-level spans saw %+v, counters say %+v", seed, sum, top, col.now())
		}
	}
}

// TestSettleCoversEveryCounter moves every counter a Sample has inside a
// span and checks that each arrives: settle lists the fields by hand.
func TestSettleCoversEveryCounter(t *testing.T) {
	if n := reflect.TypeOf(Sample{}).NumField() + reflect.TypeOf(flash.Counters{}).NumField() - 1; n != 7 {
		t.Fatalf("Sample now has %d counters: add the new ones to Collector.settle and to this test", n)
	}
	dev := flash.MustDevice(flash.Params{PageSize: 64, PagesPerBlock: 4, Blocks: 8, ReserveBlocks: 2})
	ch := bus.NewChannel(1.0)
	col := NewCollector(dev, ch, DefaultModel())
	var ids []flash.PageID
	for i := 0; i < 20; i++ {
		id, err := dev.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	_ = col.Span("all", func() error {
		buf := make([]byte, 64)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 200; i++ { // random overwrites force erases and relocations
			if err := dev.Write(ids[rng.Intn(len(ids))], buf); err != nil {
				t.Fatal(err)
			}
		}
		_ = dev.Read(ids[0], buf, 10)
		_ = ch.Transfer(bus.Down, "vis-ids", 3, "")
		return ch.Transfer(bus.Up, "query", 5, "q")
	})
	got := opOf(col, "all").Sample
	if want := col.now(); got != want {
		t.Fatalf("span saw %+v, counters say %+v", got, want)
	}
	v := reflect.ValueOf(got.Flash)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Uint() == 0 {
			t.Fatalf("flash counter %s never moved: the test no longer covers it", v.Type().Field(i).Name)
		}
	}
}

// BenchmarkCollectorSpan is the per-tuple cost joinAndStore pays three
// times: one leaf span around a closure that does nothing.
func BenchmarkCollectorSpan(b *testing.B) {
	dev := testDevice()
	col := NewCollector(dev, bus.NewChannel(1.0), DefaultModel())
	for _, n := range []string{"Vis", "CI", "Merge", "SJoin", "BF", "Store"} {
		_ = col.Span(n, func() error { return nil })
	}
	nop := func() error { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = col.Span("Store", nop)
	}
}
