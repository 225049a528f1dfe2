package cpu

import (
	"testing"

	"omega/internal/memsys"
)

func newCore() *Core { return New() }

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
	mlp := maxMLP
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
	mlp := maxMLP
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
}

func TestMemCountsInstruction(t *testing.T) {
	c := newCore()
	c.Mem(memsys.Result{Latency: 1})
	if c.Instructions() != 1 {
		t.Fatal("memory op should retire one instruction")
	}
}

// TestTableIIIConstants pins the Table III core the timing model is built
// from: 8-wide issue retiring at IPC 4, a 192-entry ROB with 12
// instructions per long-latency access (16 overlappable misses), and one
// frontend bubble per 10 instructions.
func TestTableIIIConstants(t *testing.T) {
	if maxMLP != 16 {
		t.Fatalf("mlp %d, want 16", maxMLP)
	}
	if ipc != 4 {
		t.Fatalf("ipc %d, want 4", ipc)
	}
	if bubbleNum != 1 || bubbleDen != 10 {
		t.Fatalf("frontend bubble %d/%d, want 1/10", bubbleNum, bubbleDen)
	}
	c := newCore()
	c.Exec(9) // ceil(9/4) = 3 retiring cycles, no whole bubble yet
	if c.Clock() != 3 || c.Breakdown().Frontend != 0 {
		t.Fatalf("Exec(9): clock %d frontend %d, want 3 and 0", c.Clock(), c.Breakdown().Frontend)
	}
	c.Exec(1) // 1 retiring cycle, and the tenth instruction completes a bubble
	if c.Clock() != 5 || c.Breakdown().Frontend != 1 {
		t.Fatalf("Exec(1): clock %d frontend %d, want 5 and 1", c.Clock(), c.Breakdown().Frontend)
	}
}
