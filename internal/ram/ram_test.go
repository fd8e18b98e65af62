package ram

import (
	"errors"
	"testing"
)

func TestBudgetEnforced(t *testing.T) {
	m := NewManager(65536, 2048)
	if m.Buffers() != 32 {
		t.Fatalf("buffers = %d, want 32", m.Buffers())
	}
	g, err := m.AllocBuffers(30)
	if err != nil {
		t.Fatal(err)
	}
	if m.AvailableBuffers() != 2 {
		t.Fatalf("available = %d, want 2", m.AvailableBuffers())
	}
	if _, err := m.AllocBuffers(3); !errors.Is(err, ErrExhausted) {
		t.Fatalf("over-allocation: %v", err)
	}
	g2, err := m.AllocBuffers(2)
	if err != nil {
		t.Fatal(err)
	}
	g.Release()
	g2.Release()
	if m.InUse() != 0 || m.Leaked() {
		t.Fatalf("leak: inUse=%d", m.InUse())
	}
	if m.HighWater() != 65536 {
		t.Fatalf("high water = %d, want 65536", m.HighWater())
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	m := NewManager(4096, 2048)
	g, _ := m.Alloc(100)
	g.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	g.Release()
}

func TestReserveBuffers(t *testing.T) {
	m := NewManager(8192, 2048)
	g, err := m.ReserveBuffers(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.Buffers() != 4 {
		t.Fatalf("got %d buffers, want all 4", g.Buffers())
	}
	if _, err := m.ReserveBuffers(1, 1); !errors.Is(err, ErrExhausted) {
		t.Fatalf("over-reserve: %v", err)
	}
	g.Release()
	// Less than want free: the grant shrinks to what is there.
	g, err = m.ReserveBuffers(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := m.ReserveBuffers(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Buffers() != 2 {
		t.Fatalf("elastic grant = %d buffers, want 2", g2.Buffers())
	}
	g.Release()
	g2.Release()
	if m.Leaked() {
		t.Fatal("leak")
	}
	// Invalid ranges.
	if _, err := m.ReserveBuffers(0, 1); err == nil {
		t.Fatal("zero min accepted")
	}
	if _, err := m.ReserveBuffers(2, 1); err == nil {
		t.Fatal("want < min accepted")
	}
}

func TestPlanDistributesMinsThenWants(t *testing.T) {
	m := NewManager(16384, 2048) // 8 buffers
	r, err := m.Plan(
		Claim{Name: "writers", Min: 3, Want: 3},
		Claim{Name: "stage", Min: 1, Want: 10},
		Claim{Name: "reader", Min: 1, Want: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Buffers("writers"); got != 3 {
		t.Fatalf("writers = %d", got)
	}
	// stage gets its min plus all the spare (8 - 5 mins = 3 spare).
	if got := r.Buffers("stage"); got != 4 {
		t.Fatalf("stage = %d, want 4", got)
	}
	if got := r.Buffers("reader"); got != 1 {
		t.Fatalf("reader = %d", got)
	}
	if r.Bytes("stage") != 4*2048 {
		t.Fatalf("stage bytes = %d", r.Bytes("stage"))
	}
	if m.AvailableBuffers() != 0 {
		t.Fatalf("available = %d, want 0", m.AvailableBuffers())
	}
	r.Release()
	if m.Leaked() || m.InUse() != 0 {
		t.Fatalf("leak after release: %d in use", m.InUse())
	}
}

func TestPlanFailsAtomically(t *testing.T) {
	m := NewManager(8192, 2048) // 4 buffers
	held, err := m.AllocBuffers(2)
	if err != nil {
		t.Fatal(err)
	}
	// Mins total 3 but only 2 are free: whole plan refused, nothing kept.
	if _, err := m.Plan(
		Claim{Name: "a", Min: 2, Want: 2},
		Claim{Name: "b", Min: 1, Want: 1},
	); !errors.Is(err, ErrExhausted) {
		t.Fatalf("infeasible plan: %v", err)
	}
	if m.InUse() != 2*2048 {
		t.Fatalf("failed plan kept memory: %d in use", m.InUse())
	}
	held.Release()
	if m.Leaked() {
		t.Fatal("leak")
	}
	// Duplicate names are a caller bug, and must not leak either.
	if _, err := m.Plan(Claim{Name: "x", Min: 1, Want: 1}, Claim{Name: "x", Min: 1, Want: 1}); err == nil {
		t.Fatal("duplicate claim accepted")
	}
	if m.Leaked() {
		t.Fatal("duplicate-claim failure leaked")
	}
}

func TestPlanZeroMinClaim(t *testing.T) {
	m := NewManager(4096, 2048) // 2 buffers
	r, err := m.Plan(
		Claim{Name: "must", Min: 2, Want: 2},
		Claim{Name: "nice", Min: 0, Want: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	if r.Buffers("nice") != 0 {
		t.Fatalf("nice = %d, want 0", r.Buffers("nice"))
	}
	if r.Buffers("nosuch") != 0 {
		t.Fatal("unknown claim should read as 0")
	}
	r.Release()
	if m.Leaked() {
		t.Fatal("leak")
	}
}

func TestInvalidAlloc(t *testing.T) {
	m := NewManager(4096, 2048)
	if _, err := m.Alloc(0); err == nil {
		t.Fatal("zero alloc accepted")
	}
	if _, err := m.Alloc(-5); err == nil {
		t.Fatal("negative alloc accepted")
	}
}
