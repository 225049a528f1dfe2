package cpu

import (
	"testing"

	"omega/internal/memsys"
)

func newCore() *Core { return New(0, DefaultConfig()) }

func TestExecAdvancesClock(t *testing.T) {
	c := newCore()
	c.Exec(8) // IPC = width/2 = 4 -> 2 cycles
	if c.Clock() < 2 {
		t.Fatalf("clock %d after 8 ops", c.Clock())
	}
	if c.Instructions() != 8 {
		t.Fatalf("instructions %d", c.Instructions())
	}
	if c.Breakdown().Retiring == 0 {
		t.Fatal("retiring cycles not accounted")
	}
}

func TestExecZeroOrNegativeIsNoop(t *testing.T) {
	c := newCore()
	c.Exec(0)
	c.Exec(-5)
	if c.Clock() != 0 || c.Instructions() != 0 {
		t.Fatal("non-positive exec should be a no-op")
	}
}

func TestFrontendBubblesAccrue(t *testing.T) {
	c := newCore()
	c.Exec(1000)
	b := c.Breakdown()
	// 1 bubble per 10 instructions.
	if b.Frontend < 90 || b.Frontend > 110 {
		t.Fatalf("frontend %d, want ~100", b.Frontend)
	}
}

func TestPipelinedHitIsCheap(t *testing.T) {
	c := newCore()
	start := c.Clock()
	c.Mem(memsys.Result{Latency: 1})
	if c.Clock() != start+1 {
		t.Fatalf("L1 hit should cost 1 issue cycle, took %d", c.Clock()-start)
	}
}

func TestBlockingStallsFully(t *testing.T) {
	c := newCore()
	c.Mem(memsys.Result{Latency: 200, Blocking: true})
	if c.Clock() < 200 {
		t.Fatalf("blocking access should stall, clock %d", c.Clock())
	}
	if c.Breakdown().MemoryBound < 200 {
		t.Fatal("stall must be memory-bound")
	}
}

func TestOverlappableMissesOverlap(t *testing.T) {
	c := newCore()
	// Issue maxMLP misses of 200 cycles: they should overlap, costing far
	// less than serial execution.
	mlp := DefaultConfig().maxMLP()
	for i := 0; i < mlp; i++ {
		c.Mem(memsys.Result{Latency: 200})
	}
	if c.Clock() > 100 {
		t.Fatalf("parallel misses should overlap; clock %d", c.Clock())
	}
	c.DrainWindow()
	if c.Clock() < 200 {
		t.Fatalf("drain must wait for the slowest; clock %d", c.Clock())
	}
}

func TestWindowFullStalls(t *testing.T) {
	c := newCore()
	mlp := DefaultConfig().maxMLP()
	for i := 0; i < mlp*4; i++ {
		c.Mem(memsys.Result{Latency: 200})
	}
	// Steady state throughput: latency/maxMLP per access.
	expectedMin := memsys.Cycles(200 * 3) // at least 3 full window drains
	if c.Clock() < expectedMin {
		t.Fatalf("window-full backpressure missing: clock %d < %d", c.Clock(), expectedMin)
	}
}

func TestOffloadedIsFireAndForget(t *testing.T) {
	c := newCore()
	c.Mem(memsys.Result{Latency: 0, Offloaded: true})
	if c.Clock() != 1 {
		t.Fatalf("offload should cost 1 issue cycle, clock %d", c.Clock())
	}
	c.Mem(memsys.Result{Latency: 30, Offloaded: true})
	// Backpressure stall is charged.
	if c.Clock() != 32 {
		t.Fatalf("offload backpressure not charged, clock %d", c.Clock())
	}
}

func TestDrainWindowIdempotent(t *testing.T) {
	c := newCore()
	c.Mem(memsys.Result{Latency: 50})
	c.DrainWindow()
	clk := c.Clock()
	c.DrainWindow()
	if c.Clock() != clk {
		t.Fatal("second drain should be a no-op")
	}
}

func TestSetClockForwardOnly(t *testing.T) {
	c := newCore()
	c.SetClock(100)
	if c.Clock() != 100 {
		t.Fatal("set clock failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on backwards clock")
		}
	}()
	c.SetClock(50)
}

func TestBreakdownTotals(t *testing.T) {
	c := newCore()
	c.Exec(100)
	c.Mem(memsys.Result{Latency: 100, Blocking: true})
	b := c.Breakdown()
	if b.Total() == 0 {
		t.Fatal("empty breakdown")
	}
	if b.BackendFraction() <= 0 || b.BackendFraction() > 1 {
		t.Fatalf("backend fraction %v", b.BackendFraction())
	}
	if b.MemoryFraction() <= 0 || b.MemoryFraction() > 1 {
		t.Fatalf("memory fraction %v", b.MemoryFraction())
	}
	var zero Breakdown
	if zero.BackendFraction() != 0 || zero.MemoryFraction() != 0 {
		t.Fatal("zero breakdown fractions should be 0")
	}
}

func TestMemCountsInstruction(t *testing.T) {
	c := newCore()
	c.Mem(memsys.Result{Latency: 1})
	if c.Instructions() != 1 {
		t.Fatal("memory op should retire one instruction")
	}
}

func TestConfigMLPDerivation(t *testing.T) {
	cfg := Config{Width: 8, ROBEntries: 192, InstrsPerAccess: 12}
	if cfg.maxMLP() != 16 {
		t.Fatalf("mlp %d, want 16", cfg.maxMLP())
	}
	cfg.InstrsPerAccess = 1000
	if cfg.maxMLP() != 1 {
		t.Fatal("mlp floor should be 1")
	}
}

func TestBadWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, Config{Width: 0})
}
