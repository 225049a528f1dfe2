package core

import (
	"math"
	"strings"
	"testing"

	"omega/internal/memsys"
	"omega/internal/obs"
	"omega/internal/pisc"
	"omega/internal/scratchpad"
)

func testBaseline() Config {
	b, _ := ScaledPair(4096, 8, 0.2)
	return b
}

func testOMEGA() Config {
	_, o := ScaledPair(4096, 8, 0.2)
	return o
}

func TestConfigValidate(t *testing.T) {
	if err := Baseline().Validate(); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
	if err := OMEGA().Validate(); err != nil {
		t.Fatalf("omega invalid: %v", err)
	}
	bad := Baseline()
	bad.PISC = true // without scratchpads
	if bad.Validate() == nil {
		t.Fatal("PISC without scratchpads should fail")
	}
	bad = Baseline()
	bad.LLCPollution = math.NaN()
	if bad.Validate() == nil {
		t.Fatal("NaN LLCPollution should fail")
	}
}

func TestSameTotalStorage(t *testing.T) {
	b, o := ScaledPair(100000, 8, 0.2)
	if b.TotalOnChipStorage() != o.TotalOnChipStorage() {
		t.Fatalf("storage mismatch: %d vs %d",
			b.TotalOnChipStorage(), o.TotalOnChipStorage())
	}
	bp, op := Baseline(), OMEGA()
	if bp.TotalOnChipStorage() != op.TotalOnChipStorage() {
		t.Fatal("paper-size machines must match storage")
	}
}

func TestScaledPairCoversTwentyPercent(t *testing.T) {
	n := 100000
	_, o := ScaledPair(n, 8, 0.2)
	m := NewMachine(o)
	r := m.Alloc("p", n, 8, memsys.KindVtxProp)
	resident := m.ConfigureGraph(
		[]scratchpad.MonitorRegister{m.MonitorFor(r)}, n,
		pisc.StandardMicrocode("t", pisc.OpFPAdd, false, false))
	frac := float64(resident) / float64(n)
	if frac < 0.15 || frac > 0.30 {
		t.Fatalf("resident fraction %.2f outside the paper's ~20%% regime", frac)
	}
}

func TestCheckCoverage(t *testing.T) {
	for _, c := range []float64{0.20, 0.05, 1} {
		if err := CheckCoverage(c); err != nil {
			t.Errorf("CheckCoverage(%g) = %v, want nil", c, err)
		}
	}
	for _, c := range []float64{-1, 0, 1.5, math.NaN(), math.Inf(1)} {
		if err := CheckCoverage(c); err == nil {
			t.Errorf("CheckCoverage(%g) = nil, want an error", c)
		}
	}
}

func TestResidentCapApplies(t *testing.T) {
	n := 4096
	_, o := ScaledPair(n, 8, 0.2)
	o.SPResidentCap = 100
	m := NewMachine(o)
	r := m.Alloc("p", n, 8, memsys.KindVtxProp)
	resident := m.ConfigureGraph(
		[]scratchpad.MonitorRegister{m.MonitorFor(r)}, n,
		pisc.StandardMicrocode("t", pisc.OpFPAdd, false, false))
	if resident != 100 {
		t.Fatalf("resident %d, want capped 100", resident)
	}
}

func TestAllocRegions(t *testing.T) {
	m := NewMachine(testBaseline())
	a := m.Alloc("a", 100, 8, memsys.KindVtxProp)
	b := m.Alloc("b", 50, 4, memsys.KindEdgeList)
	if a.Base == b.Base {
		t.Fatal("regions must not overlap")
	}
	if a.Base%4096 != 0 || b.Base%4096 != 0 {
		t.Fatal("regions must be page aligned")
	}
	if a.Addr(99) != a.Base+99*8 {
		t.Fatal("addressing wrong")
	}
	if len(m.Regions()) != 2 {
		t.Fatal("region registry wrong")
	}
}

func TestAllocBoundsPanic(t *testing.T) {
	m := NewMachine(testBaseline())
	r := m.Alloc("a", 10, 8, memsys.KindVtxProp)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Addr(10)
}

func TestParallelForVisitsAll(t *testing.T) {
	m := NewMachine(testBaseline())
	seen := make([]int, 1000)
	m.ParallelFor(1000, func(ctx *Ctx, i int) {
		seen[i]++
		ctx.Exec(1)
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("item %d visited %d times", i, c)
		}
	}
	if m.ElapsedCycles() == 0 {
		t.Fatal("no time advanced")
	}
}

func TestParallelForStaticVisitsAll(t *testing.T) {
	cfg := testBaseline()
	cfg.DynamicSchedule = false
	m := NewMachine(cfg)
	seen := make([]int, 777)
	m.ParallelForGrain(777, 13, func(ctx *Ctx, i int) {
		seen[i]++
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("static: item %d visited %d times", i, c)
		}
	}
}

func TestParallelForEmpty(t *testing.T) {
	m := NewMachine(testBaseline())
	m.ParallelFor(0, func(ctx *Ctx, i int) { t.Fatal("must not run") })
}

func TestParallelForDeterministic(t *testing.T) {
	run := func() memsys.Cycles {
		m := NewMachine(testBaseline())
		r := m.Alloc("p", 4096, 8, memsys.KindVtxProp)
		m.ParallelFor(4096, func(ctx *Ctx, i int) {
			ctx.Exec(3)
			ctx.Read(r, (i*2654435761)%4096)
			ctx.Atomic(r, (i*40503)%4096)
		})
		return m.ElapsedCycles()
	}
	if run() != run() {
		t.Fatal("simulation must be deterministic")
	}
}

func TestBarrierAlignsClocks(t *testing.T) {
	m := NewMachine(testBaseline())
	m.ParallelFor(100, func(ctx *Ctx, i int) {
		// Uneven work.
		ctx.Exec(1 + i%50*10)
	})
	var clocks []memsys.Cycles
	for c := 0; c < NumCores; c++ {
		clocks = append(clocks, m.cores[c].Clock())
	}
	for _, c := range clocks[1:] {
		if c != clocks[0] {
			t.Fatal("barrier did not align clocks")
		}
	}
}

func TestSequentialRunsOnCoreZero(t *testing.T) {
	m := NewMachine(testBaseline())
	m.Sequential(func(ctx *Ctx) {
		if ctx.Core() != 0 {
			t.Fatal("sequential sections run on core 0")
		}
		ctx.Exec(100)
	})
	if m.ElapsedCycles() == 0 {
		t.Fatal("sequential work not charged")
	}
}

func TestOmegaFasterThanBaselineOnHotAtomics(t *testing.T) {
	// A synthetic atomic-scatter kernel over a skewed target distribution
	// must be faster on OMEGA — the paper's core claim in miniature.
	run := func(cfg Config) memsys.Cycles {
		m := NewMachine(cfg)
		n := 4096
		r := m.Alloc("prop", n, 8, memsys.KindVtxProp)
		m.ConfigureGraph([]scratchpad.MonitorRegister{m.MonitorFor(r)}, n,
			pisc.StandardMicrocode("t", pisc.OpFPAdd, false, false))
		m.ParallelFor(n*8, func(ctx *Ctx, i int) {
			ctx.Exec(4)
			// 80% of updates to the top 20% of vertices.
			var v int
			if i%5 != 0 {
				v = (i * 104729) % (n / 5)
			} else {
				v = n/5 + (i*15485863)%(n*4/5)
			}
			ctx.Atomic(r, v)
		})
		return m.ElapsedCycles()
	}
	base := run(testBaseline())
	om := run(testOMEGA())
	if float64(base)/float64(om) < 1.3 {
		t.Fatalf("OMEGA should clearly win on hot atomics: base %d vs omega %d", base, om)
	}
}

func TestScratchpadResidentAccessesBypassCaches(t *testing.T) {
	m := NewMachine(testOMEGA())
	n := 4096
	r := m.Alloc("prop", n, 8, memsys.KindVtxProp)
	resident := m.ConfigureGraph([]scratchpad.MonitorRegister{m.MonitorFor(r)}, n,
		pisc.StandardMicrocode("t", pisc.OpFPAdd, false, false))
	if resident == 0 {
		t.Fatal("no residents configured")
	}
	m.ParallelFor(resident, func(ctx *Ctx, i int) {
		ctx.Read(r, i)
	})
	st := m.Stats()
	if st.SPAccesses == 0 {
		t.Fatal("resident reads should hit scratchpads")
	}
	if st.SPAccesses != uint64(resident) {
		t.Fatalf("SP accesses %d, want %d", st.SPAccesses, resident)
	}
}

func TestNonResidentVtxPropUsesCachePath(t *testing.T) {
	m := NewMachine(testOMEGA())
	n := 4096
	r := m.Alloc("prop", n, 8, memsys.KindVtxProp)
	resident := m.ConfigureGraph([]scratchpad.MonitorRegister{m.MonitorFor(r)}, n,
		pisc.StandardMicrocode("t", pisc.OpFPAdd, false, false))
	m.ParallelFor(n-resident, func(ctx *Ctx, i int) {
		ctx.Read(r, resident+i)
	})
	st := m.Stats()
	if st.SPAccesses != 0 {
		t.Fatal("non-resident reads must not touch scratchpads")
	}
	if st.TotalAccesses() == 0 {
		t.Fatal("accesses unaccounted")
	}
}

func TestAtomicsAsPlainEmitsReadWrite(t *testing.T) {
	cfg := testBaseline()
	cfg.AtomicsAsPlain = true
	m := NewMachine(cfg)
	r := m.Alloc("p", 100, 8, memsys.KindVtxProp)
	m.Sequential(func(ctx *Ctx) { ctx.Atomic(r, 5) })
	st := m.Stats()
	if st.Atomics != 0 {
		t.Fatal("plain mode should not issue atomics")
	}
	if st.AccessesByKind[memsys.KindVtxProp] != 2 {
		t.Fatalf("want read+write pair, got %d accesses", st.AccessesByKind[memsys.KindVtxProp])
	}
}

func TestVertexProfile(t *testing.T) {
	m := NewMachine(testBaseline())
	m.EnableVertexProfile(100)
	r := m.Alloc("p", 100, 8, memsys.KindVtxProp)
	m.Sequential(func(ctx *Ctx) {
		ctx.Read(r, 7)
		ctx.Read(r, 7)
		ctx.Write(r, 9)
	})
	prof := m.VertexProfile()
	if prof[7] != 2 || prof[9] != 1 {
		t.Fatalf("profile wrong: %v", prof[:10])
	}
}

func TestStatsSummaryRenders(t *testing.T) {
	m := NewMachine(testOMEGA())
	n := 1024
	r := m.Alloc("p", n, 8, memsys.KindVtxProp)
	m.ConfigureGraph([]scratchpad.MonitorRegister{m.MonitorFor(r)}, n,
		pisc.StandardMicrocode("t", pisc.OpFPAdd, false, false))
	m.ParallelFor(n, func(ctx *Ctx, i int) {
		ctx.Exec(2)
		ctx.Atomic(r, i%64)
	})
	s := m.Stats().Summary()
	for _, want := range []string{"omega", "L1", "DRAM", "NoC", "SP:", "TMAM"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
	if m.String() == "" {
		t.Fatal("machine description empty")
	}
}

func TestSpeedupHelper(t *testing.T) {
	a := MachineStats{Cycles: 100}
	b := MachineStats{Cycles: 200}
	if a.Speedup(b) != 2.0 {
		t.Fatalf("speedup %v", a.Speedup(b))
	}
	var zero MachineStats
	if zero.Speedup(a) != 0 {
		t.Fatal("zero-cycle speedup should be 0")
	}
}

// levelProfile reads the per-level access counts and summed latencies
// from the registry's machine/level_count and machine/level_latency
// counters, keyed by level name; levels that served nothing are absent.
func levelProfile(m *Machine) (counts, latencies map[string]uint64) {
	counts = map[string]uint64{}
	latencies = map[string]uint64{}
	m.Metrics().Each(func(d obs.Desc) {
		if d.Component != "machine" {
			return
		}
		if v := d.Read(); v != 0 {
			switch d.Name {
			case "level_count":
				counts[d.Level] = v
			case "level_latency":
				latencies[d.Level] = v
			}
		}
	})
	return counts, latencies
}

func TestLevelCountersExposed(t *testing.T) {
	m := NewMachine(testBaseline())
	r := m.Alloc("p", 64, 8, memsys.KindVtxProp)
	m.Sequential(func(ctx *Ctx) { ctx.Read(r, 0) })
	counts, lats := levelProfile(m)
	if len(counts) == 0 || len(lats) == 0 {
		t.Fatal("level profile empty")
	}
}

func TestBeginIterationCountsAndInvalidates(t *testing.T) {
	m := NewMachine(testOMEGA())
	m.BeginIteration()
	m.BeginIteration()
	if m.Stats().Iterations != 2 {
		t.Fatal("iteration count wrong")
	}
}
