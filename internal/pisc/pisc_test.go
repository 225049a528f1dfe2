package pisc

import (
	"math"
	"testing"
	"testing/quick"

	"omega/internal/memsys"
)

func TestOpApplyFPAdd(t *testing.T) {
	nv, changed := OpFPAdd.Apply(FloatValue(1.5), FloatValue(2.25))
	if !changed || nv.Float() != 3.75 {
		t.Fatalf("fp add -> %v changed=%v", nv.Float(), changed)
	}
	_, changed = OpFPAdd.Apply(FloatValue(1.5), FloatValue(0))
	if changed {
		t.Fatal("adding zero should not report change")
	}
}

func TestOpApplyUnsignedCAS(t *testing.T) {
	unset := Value(^uint64(0))
	nv, changed := OpUnsignedCompareSwap.Apply(unset, Value(7))
	if !changed || nv != 7 {
		t.Fatal("CAS on sentinel should succeed")
	}
	nv, changed = OpUnsignedCompareSwap.Apply(Value(7), Value(9))
	if changed || nv != 7 {
		t.Fatal("CAS on set value should fail")
	}
}

func TestOpApplySignedMin(t *testing.T) {
	nv, changed := OpSignedMin.Apply(IntValue(10), IntValue(3))
	if !changed || nv.Int() != 3 {
		t.Fatal("min should take smaller")
	}
	_, changed = OpSignedMin.Apply(IntValue(3), IntValue(10))
	if changed {
		t.Fatal("larger operand should not change")
	}
	// Negative numbers order correctly.
	nv, changed = OpSignedMin.Apply(IntValue(3), IntValue(-5))
	if !changed || nv.Int() != -5 {
		t.Fatal("negative min broken")
	}
}

func TestOpApplySignedAdd(t *testing.T) {
	nv, changed := OpSignedAdd.Apply(IntValue(10), IntValue(-4))
	if !changed || nv.Int() != 6 {
		t.Fatal("signed add broken")
	}
	_, changed = OpSignedAdd.Apply(IntValue(10), IntValue(0))
	if changed {
		t.Fatal("add zero should not change")
	}
}

func TestOpApplyOr(t *testing.T) {
	nv, changed := OpOr.Apply(Value(0b0011), Value(0b0110))
	if !changed || nv != 0b0111 {
		t.Fatal("or broken")
	}
	_, changed = OpOr.Apply(Value(0b0111), Value(0b0011))
	if changed {
		t.Fatal("subset or should not change")
	}
}

func TestOpApplyBoolComp(t *testing.T) {
	nv, changed := OpBoolComp.Apply(Value(^uint64(0)), Value(3))
	if !changed || nv != 3 {
		t.Fatal("smaller operand should replace")
	}
	_, changed = OpBoolComp.Apply(Value(3), Value(5))
	if changed {
		t.Fatal("larger operand should not replace")
	}
}

func TestOpApplyNop(t *testing.T) {
	nv, changed := OpNop.Apply(Value(1), Value(2))
	if changed || nv != 1 {
		t.Fatal("nop changed state")
	}
}

func TestValueRoundTrips(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		return FloatValue(x).Float() == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(x int64) bool { return IntValue(x).Int() == x }
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinConvergesToMinimum(t *testing.T) {
	// Property: folding OpSignedMin over any sequence yields the minimum,
	// regardless of order — the invariant that makes PISC offload safe.
	f := func(xs []int64) bool {
		if len(xs) == 0 {
			return true
		}
		acc := IntValue(xs[0])
		min := xs[0]
		for _, x := range xs[1:] {
			acc, _ = OpSignedMin.Apply(acc, IntValue(x))
			if x < min {
				min = x
			}
		}
		return acc.Int() == min
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMicrocodeLatency(t *testing.T) {
	mc := StandardMicrocode("pr", OpFPAdd, false, false)
	// read(3) + fpadd(3) + write(3) = 9 at SPLat 3.
	if mc.Latency() != 9 {
		t.Fatalf("latency %d, want 9", mc.Latency())
	}
	mcTrack := StandardMicrocode("bfs", OpUnsignedCompareSwap, true, true)
	// read(3) + alu(1) + write(3) + dense(1) + sparse(1) = 9.
	if mcTrack.Latency() != 9 {
		t.Fatalf("latency %d, want 9", mcTrack.Latency())
	}
	var empty Microcode
	if empty.Latency() != 1 {
		t.Fatal("empty microcode should cost 1")
	}
}

func TestMicrocodeOccupancyPipelined(t *testing.T) {
	mc := StandardMicrocode("pr", OpFPAdd, false, false)
	if mc.Occupancy() != 3 {
		t.Fatalf("fp occupancy %d, want 3", mc.Occupancy())
	}
	mcInt := StandardMicrocode("cc", OpSignedMin, false, false)
	if mcInt.Occupancy() != 3 {
		t.Fatalf("int occupancy bounded by SP latency: %d", mcInt.Occupancy())
	}
}

func TestEngineOffloadIdle(t *testing.T) {
	e := NewEngine()
	e.LoadMicrocode(StandardMicrocode("pr", OpFPAdd, false, false))
	stall, done := e.Offload(100)
	if stall != 0 {
		t.Fatalf("idle engine should not backpressure, stall %d", stall)
	}
	if done != 100+9 {
		t.Fatalf("completion %d, want 109", done)
	}
	if e.Executed.Value() != 1 {
		t.Fatal("execution not counted")
	}
}

func TestEngineBackpressureUnderFlood(t *testing.T) {
	e := NewEngine()
	e.LoadMicrocode(StandardMicrocode("pr", OpFPAdd, false, false))
	var stalled memsys.Cycles
	now := memsys.Cycles(0)
	for i := 0; i < 10000; i++ {
		s, _ := e.Offload(now)
		stalled += s
		now++ // 1 op/cycle demanded vs 1 per 3 cycles capacity
	}
	if stalled == 0 {
		t.Fatal("flooded engine must backpressure")
	}
	if e.Backpress.Value() == 0 {
		t.Fatal("backpressure not counted")
	}
}

func TestEngineKeepsUpAtCapacity(t *testing.T) {
	e := NewEngine()
	e.LoadMicrocode(StandardMicrocode("cc", OpSignedMin, false, false))
	var stalled memsys.Cycles
	now := memsys.Cycles(0)
	for i := 0; i < 10000; i++ {
		s, _ := e.Offload(now)
		stalled += s
		now += 4 // below the 1-per-3-cycles capacity
	}
	if stalled > 0 {
		t.Fatalf("under-capacity load should not stall, got %d", stalled)
	}
}

func TestOpStringsAndLatencies(t *testing.T) {
	ops := []Op{OpNop, OpFPAdd, OpUnsignedCompareSwap, OpSignedMin, OpSignedAdd, OpOr, OpBoolComp}
	for _, o := range ops {
		if o.String() == "" {
			t.Fatalf("op %d has no name", o)
		}
		if o.Latency() == 0 {
			t.Fatalf("op %v has zero latency", o)
		}
	}
	if OpFPAdd.Latency() <= OpSignedAdd.Latency() {
		t.Fatal("fp add should be the long pole")
	}
}

func TestUnknownOpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Op(99).Apply(0, 0)
}
