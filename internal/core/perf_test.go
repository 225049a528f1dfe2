package core

import (
	"testing"

	"omega/internal/memsys"
	"omega/internal/obs"
	"omega/internal/pisc"
	"omega/internal/scratchpad"
)

// This file holds the hot-path microbenchmarks and allocation guards for
// the performance work on the simulated-access path: level-enum
// accounting, the flat coherence directory, and the heap-based core
// scheduler. The benchmarks isolate the per-access and per-item costs;
// the guards pin the "zero allocations in steady state" contract so a
// future change that reintroduces a per-access allocation fails CI.

const perfN = 4096 // vertices in the benchmark working set (power of two)

// perfMachine builds a machine plus a vtxProp region, configured for
// scratchpad residency and PISC microcode when omega is true.
func perfMachine(omega bool) (*Machine, *Region) {
	b, o := ScaledPair(perfN, 8, 0.2)
	cfg := b
	if omega {
		cfg = o
	}
	m := NewMachine(cfg)
	r := m.Alloc("prop", perfN, 8, memsys.KindVtxProp)
	if omega {
		m.ConfigureGraph(
			[]scratchpad.MonitorRegister{m.MonitorFor(r)}, perfN,
			pisc.StandardMicrocode("add", pisc.OpFPAdd, false, false))
	}
	return m, r
}

// warmAccess drives every access variant across the working set so
// caches, the directory table, and per-core buffers reach steady state.
func warmAccess(m *Machine, r *Region) {
	for pass := 0; pass < 4; pass++ {
		sequential(m, func(ctx *Ctx) {
			for i := 0; i < perfN; i++ {
				ctx.Read(r, i)
				ctx.Write(r, i)
				ctx.Atomic(r, i)
				ctx.ReadSrc(r, i)
			}
		})
	}
}

func benchAccess(b *testing.B, omega bool, op func(*Ctx, *Region, int)) {
	m, r := perfMachine(omega)
	warmAccess(m, r)
	i := 0
	body := func(ctx *Ctx) {
		op(ctx, r, i&(perfN-1))
		i++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		sequential(m, body)
	}
}

// BenchmarkAccessPath measures one simulated access end to end (issue,
// hierarchy walk, level accounting) on both machines.
func BenchmarkAccessPath(b *testing.B) {
	for _, mc := range []struct {
		name  string
		omega bool
	}{{"baseline", false}, {"omega", true}} {
		b.Run(mc.name+"/read", func(b *testing.B) {
			benchAccess(b, mc.omega, func(c *Ctx, r *Region, i int) { c.Read(r, i) })
		})
		b.Run(mc.name+"/write", func(b *testing.B) {
			benchAccess(b, mc.omega, func(c *Ctx, r *Region, i int) { c.Write(r, i) })
		})
		b.Run(mc.name+"/atomic", func(b *testing.B) {
			benchAccess(b, mc.omega, func(c *Ctx, r *Region, i int) { c.Atomic(r, i) })
		})
	}
}

const missN = 1 << 14 // lines in the miss working set (1 MB ≫ scaled caches)

// missMachine builds a baseline machine plus a region sized far beyond
// its scaled caches, so a stride-one-line sweep misses at every level.
// KindVtxProp keeps the next-line prefetcher and stream memo out of the
// measurement.
func missMachine() (*Machine, *Region) {
	m, _ := perfMachine(false)
	r := m.Alloc("miss", missN, memsys.LineSize, memsys.KindVtxProp)
	return m, r
}

// BenchmarkMissPath measures the full L1-miss → L2-miss → DRAM fill
// cascade: NoC request, directory acquire, L2 probe, DRAM access, L2 fill
// with eviction handling, and the L1 fill. The working set is ~64× the
// total scaled L2, so after one warm lap every access takes this path.
func BenchmarkMissPath(b *testing.B) {
	m, r := missMachine()
	i := 0
	body := func(ctx *Ctx) {
		ctx.Read(r, i&(missN-1))
		i++
	}
	for k := 0; k < missN; k++ { // warm lap: caches, directory, queues
		sequential(m, body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		sequential(m, body)
	}
}

// TestMissPathZeroAlloc pins the miss cascade's allocation contract: once
// warm, a full L1→L2→DRAM miss (including L2 eviction back-invalidation)
// allocates nothing.
func TestMissPathZeroAlloc(t *testing.T) {
	m, r := missMachine()
	i := 0
	body := func(ctx *Ctx) {
		ctx.Read(r, i&(missN-1))
		i++
	}
	for k := 0; k < missN; k++ {
		sequential(m, body)
	}
	allocs := testing.AllocsPerRun(2000, func() { sequential(m, body) })
	if allocs != 0 {
		t.Fatalf("steady-state miss path allocates %.1f objects/access, want 0", allocs)
	}
}

// BenchmarkParallelFor measures scheduler overhead per item: an empty
// body isolates the heap-based core selection and chunk accounting.
func BenchmarkParallelFor(b *testing.B) {
	for _, sched := range []struct {
		name    string
		dynamic bool
	}{{"static", false}, {"dynamic", true}} {
		b.Run(sched.name, func(b *testing.B) {
			cfg := Baseline()
			cfg.DynamicSchedule = sched.dynamic
			m := NewMachine(cfg)
			body := func(ctx *Ctx, i int) { ctx.Exec(1) }
			m.ParallelFor(perfN, body) // warm scheduler scratch
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				m.ParallelFor(perfN, body)
			}
			b.ReportMetric(float64(b.N*perfN)/float64(b.Elapsed().Seconds())/1e6,
				"Mitems/s")
		})
	}
}

// TestAccessPathZeroAlloc pins the tentpole contract: once warm, a
// simulated access allocates nothing on either machine, for any op.
func TestAccessPathZeroAlloc(t *testing.T) {
	for _, mc := range []struct {
		name  string
		omega bool
	}{{"baseline", false}, {"omega", true}} {
		t.Run(mc.name, func(t *testing.T) {
			m, r := perfMachine(mc.omega)
			warmAccess(m, r)
			i := 0
			body := func(ctx *Ctx) {
				j := i & (perfN - 1)
				ctx.Read(r, j)
				ctx.Write(r, j)
				ctx.Atomic(r, j)
				ctx.ReadSrc(r, j)
				i++
			}
			allocs := testing.AllocsPerRun(2000, func() { sequential(m, body) })
			if allocs != 0 {
				t.Fatalf("steady-state access path allocates %.1f objects/iteration, want 0", allocs)
			}
		})
	}
}

// TestAccessPathZeroAllocWithSink pins the observability overhead
// contract: the access path stays allocation-free both with a nil sink
// explicitly attached (the detached fast path is one nil check) and
// with a samples-only sink attached — a sink never receives accesses,
// so the per-access hook stays disabled and emission cost is confined
// to iteration boundaries.
func TestAccessPathZeroAllocWithSink(t *testing.T) {
	sinks := []struct {
		name string
		sink obs.Sink
	}{
		{"nil", nil},
		{"samples-only", obs.NewBuffer()},
	}
	for _, mc := range []struct {
		name  string
		omega bool
	}{{"baseline", false}, {"omega", true}} {
		for _, sk := range sinks {
			t.Run(mc.name+"/"+sk.name, func(t *testing.T) {
				m, r := perfMachine(mc.omega)
				m.AttachSink(sk.sink)
				warmAccess(m, r)
				i := 0
				body := func(ctx *Ctx) {
					j := i & (perfN - 1)
					ctx.Read(r, j)
					ctx.Write(r, j)
					ctx.Atomic(r, j)
					ctx.ReadSrc(r, j)
					i++
				}
				allocs := testing.AllocsPerRun(2000, func() { sequential(m, body) })
				if allocs != 0 {
					t.Fatalf("access path with %s sink allocates %.1f objects/iteration, want 0",
						sk.name, allocs)
				}
			})
		}
	}
}

// TestParallelForZeroAlloc pins the scheduler contract: a warm parallel
// region allocates nothing regardless of schedule.
func TestParallelForZeroAlloc(t *testing.T) {
	for _, sched := range []struct {
		name    string
		dynamic bool
	}{{"static", false}, {"dynamic", true}} {
		t.Run(sched.name, func(t *testing.T) {
			cfg := Baseline()
			cfg.DynamicSchedule = sched.dynamic
			m := NewMachine(cfg)
			body := func(ctx *Ctx, i int) { ctx.Exec(1) }
			m.ParallelFor(perfN, body) // warm scheduler scratch
			allocs := testing.AllocsPerRun(50, func() { m.ParallelFor(perfN, body) })
			if allocs != 0 {
				t.Fatalf("warm ParallelFor allocates %.1f objects/region, want 0", allocs)
			}
		})
	}
}
