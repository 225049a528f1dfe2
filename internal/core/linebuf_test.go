package core

import (
	"fmt"
	"reflect"
	"testing"

	"omega/internal/faults"
	"omega/internal/memsys"
	"omega/internal/obs"
	"omega/internal/pisc"
	"omega/internal/scratchpad"
)

// armed reports whether core's L1 same-line memo is armed for the line
// of r[i], i.e. whether the next read of it would take fastRead's memo hit.
func armed(m *Machine, core int, r *Region, i int) bool {
	return m.path.l1[core].HotWay(r.Addr(i)) >= 0
}

// lineBufFaults injects the fault sites whose PRNG draws the line buffer
// leaves untouched: DRAM flips and NoC drops (misses are identical on
// both paths) and scratchpad parity (vtxProp never takes the fast path).
// DirFlipRate and LineBufFlipRate are deliberately absent: the full
// probe draws a directory flip on every access that a memo hit skips,
// and line-buffer flips are drawn only when a memo is armed, so those
// streams legitimately differ with the buffer off (Config.DisableLineBuffer).
var lineBufFaults = faults.Config{
	Seed:         7,
	DRAMFlipRate: 0.05,
	NoCDropRate:  0.01,
	SPParityRate: 0.02,
}

// withoutLineBuf drops the linebuf component's samples, which count the
// fast path's own hits and arms and so exist only with the buffer on.
func withoutLineBuf(samples []obs.MetricSample) []obs.MetricSample {
	var out []obs.MetricSample
	for _, s := range samples {
		if s.Component != "linebuf" {
			out = append(out, s)
		}
	}
	return out
}

// TestLineBufferStatsEquivalence runs foldScript's adversarial mix —
// same-line streaming runs, cross-core writes that invalidate buffered
// lines, interleaved vtxProp traffic, atomics, an iteration boundary —
// with the line buffer enabled and disabled, across {baseline, OMEGA} ×
// {fault-free, DRAM+NoC+SP-parity faults}. The fast path must be
// invisible: identical stats, level profile, and metric samples (minus
// the buffer's own counters).
func TestLineBufferStatsEquivalence(t *testing.T) {
	for _, omega := range []bool{false, true} {
		for _, faulty := range []bool{false, true} {
			t.Run(fmt.Sprintf("omega=%v/faults=%v", omega, faulty), func(t *testing.T) {
				var fc faults.Config
				if faulty {
					fc = lineBufFaults
				}
				stOn, cntOn, latOn, smpOn := runFoldScript(t, foldConfig(omega, true, fc), false)
				stOff, cntOff, latOff, smpOff := runFoldScript(t, foldConfig(omega, false, fc), false)
				if !reflect.DeepEqual(stOn, stOff) {
					t.Fatalf("stats diverge with line buffer enabled:\non:  %+v\noff: %+v", stOn, stOff)
				}
				if !reflect.DeepEqual(cntOn, cntOff) {
					t.Fatalf("level counts diverge:\non:  %v\noff: %v", cntOn, cntOff)
				}
				if !reflect.DeepEqual(latOn, latOff) {
					t.Fatalf("level latencies diverge:\non:  %v\noff: %v", latOn, latOff)
				}
				if on, off := withoutLineBuf(smpOn), withoutLineBuf(smpOff); !reflect.DeepEqual(on, off) {
					t.Fatalf("metric samples diverge: on %d vs off %d samples", len(on), len(off))
				}
				if len(smpOn) == len(withoutLineBuf(smpOn)) {
					t.Fatal("line buffer never hit; the script does not exercise the fast path")
				}
				if stOn.Invalidations == 0 {
					t.Fatal("script did not exercise a coherence invalidation")
				}
				if faulty && stOn.Faults.Total() == 0 {
					t.Fatal("faulty grid point injected no faults; rates too low to exercise the invariant")
				}
			})
		}
	}
}

// TestLineBufferCoherenceWrite pins the cross-core write edge against
// the MESI-lite model. The directory counts an invalidation message and
// truncates the sharer list, but it does not physically remove the
// other core's L1 copy — a full probe after the write still hits the
// stale-but-present line (that is why the residency superset mask
// exists). The memo must therefore keep validating: replaying it is
// exactly what the full probe would do. Physical L1 invalidation only
// happens on L2 back-invalidation, covered at the cache level by
// TestInvalidateDropsMemoAndBumpsGen; the composed bit-identity is
// proven by TestLineBufferStatsEquivalence, whose script includes a
// cross-core write to a line the other core has buffered.
func TestLineBufferCoherenceWrite(t *testing.T) {
	m := NewMachine(testBaseline())
	el := m.Alloc("el", 4096, 8, memsys.KindEdgeList)
	c0 := &Ctx{m: m, core: 0}
	c1 := &Ctx{m: m, core: 1}
	c0.Read(el, 0)
	if !armed(m, 0, el, 0) {
		t.Fatal("read did not arm the memo")
	}
	c1.Write(el, 0)
	if m.Stats().Invalidations == 0 {
		t.Fatal("cross-core write did not raise a directory invalidation")
	}
	// The stale copy is still present in core 0's L1, so the memo must
	// still validate — dropping it here would desynchronize the fast
	// path from the full probe's hit/miss outcome.
	if !armed(m, 0, el, 0) {
		t.Fatal("memo died on a cross-core write; the full probe would still hit the stale L1 copy")
	}
	hitsBefore := m.path.l1[0].Reads.Hits
	c0.Read(el, 0)
	if m.path.l1[0].Reads.Hits != hitsBefore+1 {
		t.Fatal("full-probe semantics changed: post-write read on the stale copy should hit L1")
	}
}

// TestLineBufferIterationAndConfigEpochs checks the machine-level
// conservative invalidations: BeginIteration and ConfigureGraph each
// drop every core's memo (Cache.DropHot on every L1).
func TestLineBufferIterationAndConfigEpochs(t *testing.T) {
	m := NewMachine(testOMEGA())
	el := m.Alloc("el", 4096, 8, memsys.KindEdgeList)
	vp := m.Alloc("vp", 4096, 8, memsys.KindVtxProp)
	c0 := &Ctx{m: m, core: 0}

	c0.Read(el, 0)
	if !armed(m, 0, el, 0) {
		t.Fatal("read did not arm the memo")
	}
	m.BeginIteration() // scratchpad InvalidateSrcBufs + memo drop
	if armed(m, 0, el, 0) {
		t.Fatal("memo survived BeginIteration")
	}

	c0.Read(el, 0)
	if !armed(m, 0, el, 0) {
		t.Fatal("re-probe did not re-arm the memo")
	}
	m.ConfigureGraph([]scratchpad.MonitorRegister{m.MonitorFor(vp)}, 4096,
		pisc.StandardMicrocode("t", pisc.OpFPAdd, false, false))
	if armed(m, 0, el, 0) {
		t.Fatal("memo survived ConfigureGraph")
	}
}

// TestLineBufferFaultDegrade checks the resilience edge: a scratchpad
// parity trip degrades the vertex to the cache path and must
// conservatively drop the tripping core's memo (via Cache.DropHot).
func TestLineBufferFaultDegrade(t *testing.T) {
	cfg := testOMEGA()
	cfg.Faults = faults.Config{Seed: 1, SPParityRate: 1} // every SP access trips
	m := NewMachine(cfg)
	el := m.Alloc("el", 4096, 8, memsys.KindEdgeList)
	vp := m.Alloc("vp", 4096, 8, memsys.KindVtxProp)
	resident := m.ConfigureGraph([]scratchpad.MonitorRegister{m.MonitorFor(vp)}, 4096,
		pisc.StandardMicrocode("t", pisc.OpFPAdd, false, false))
	if resident < 1 {
		t.Fatal("no scratchpad-resident vertices")
	}
	c0 := &Ctx{m: m, core: 0}
	c0.Read(el, 0)
	if !armed(m, 0, el, 0) {
		t.Fatal("read did not arm the memo")
	}
	c0.Read(vp, 0) // resident vertex, parity trips, degrade path runs
	if m.Stats().SPDegraded == 0 {
		t.Fatal("parity trip did not degrade the vertex")
	}
	if armed(m, 0, el, 0) {
		t.Fatal("memo survived a fault degrade on the same core")
	}
}

// TestLineBufFaultSite pins the linebuf fault site's per-core corruption
// record (memoFault) at the machine level. At LineBufFlipRate 1 every
// fastRead full probe corrupts the memo it just armed.
func TestLineBufFaultSite(t *testing.T) {
	buildAt := func(checked bool, seed uint64, rate float64) (*Machine, *Region, *Ctx) {
		cfg := testBaseline()
		cfg.Faults = faults.Config{Seed: seed, LineBufFlipRate: rate}
		cfg.DisableLineBufGenCheck = !checked
		m := NewMachine(cfg)
		el := m.Alloc("el", 4096, 8, memsys.KindEdgeList)
		return m, el, &Ctx{m: m, core: 0}
	}
	build := func(checked bool) (*Machine, *Region, *Ctx) { return buildAt(checked, 3, 1) }
	catches := func(m *Machine) uint64 { return m.FaultEvents().LineBufGenCatches }
	const perLine = memsys.LineSize / 8 // elements of el per line

	t.Run("checked", func(t *testing.T) {
		m, el, c0 := build(true)
		c0.Read(el, 0)
		if f := m.memoFaults[0]; !f.armed || !f.checked || f.line != memsys.LineAddr(el.Addr(0)) {
			t.Fatalf("full probe did not record a checked corruption: %+v", f)
		}
		stores := m.lbStores.Value()
		c0.Read(el, 1) // same line: the memo is refused
		if m.lbStores.Value() != stores+1 || m.lbHits.Value() != 0 {
			t.Fatalf("same-line read did not take the full probe: stores %d, hits %d",
				m.lbStores.Value(), m.lbHits.Value())
		}
		if n := catches(m); n != 1 {
			t.Fatalf("%d catches, want exactly 1", n)
		}
	})

	t.Run("unchecked", func(t *testing.T) {
		m, el, c0 := build(false)
		c0.Read(el, 0)
		if f := m.memoFaults[0]; !f.armed || f.checked {
			t.Fatalf("full probe did not record an unchecked corruption: %+v", f)
		}
		li := levelIndex(memsys.LevelL1, false)
		before := m.levelLatency[li]
		c0.Read(el, 1) // same line: the memo replays the corrupted latency
		if m.lbHits.Value() != 1 {
			t.Fatalf("same-line read missed the memo: hits %d", m.lbHits.Value())
		}
		lat := m.levelLatency[li] - before
		diff := lat ^ uint64(m.path.l1[0].Latency())
		if diff == 0 || diff&(diff-1) != 0 || diff < 1<<4 || diff > 1<<9 {
			t.Fatalf("replayed latency %d is not one bit in [16, 512] off the L1 latency", lat)
		}
		if m.fold.active {
			t.Fatal("a corrupted memo hit opened a fold window")
		}
		if n := catches(m); n != 0 {
			t.Fatalf("unchecked replay counted %d catches", n)
		}
	})

	t.Run("other-line-clears", func(t *testing.T) {
		// Find a seed whose first probe corrupts and second does not, so
		// the second probe must clear the record rather than replace it.
		var m *Machine
		var el *Region
		var c0 *Ctx
		for seed := uint64(1); ; seed++ {
			if seed > 64 {
				t.Fatal("no seed flips the first probe only")
			}
			m, el, c0 = buildAt(true, seed, 0.5)
			if c0.Read(el, 0); m.FaultEvents().LineBufFlips != 1 {
				continue
			}
			if c0.Read(el, perLine); m.FaultEvents().LineBufFlips == 1 {
				break
			}
		}
		if f := m.memoFaults[0]; f.armed {
			t.Fatalf("full probe of another line left the record armed: %+v", f)
		}
		c0.Read(el, 0) // re-probe of the first line: nothing left to catch
		if n := catches(m); n != 0 {
			t.Fatalf("cleared corruption counted %d catches", n)
		}
	})
}
