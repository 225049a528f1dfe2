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

// This file pins the run-fold batching contract of DESIGN.md §11: with
// batching enabled (the default) and disabled (an AccessSink attached,
// which turns folding off), a machine must produce bit-identical stats,
// level profiles, and metric samples for the same access script — across
// both machine models, with and without the line buffer, and under fault
// injection.

// foldScript drives an adversarial mix through the fold windows: long
// streaming runs, interleaved Exec ticks, vtxProp traffic (never folds;
// on OMEGA it draws fault PRNG), cross-core ownership churn, a foreign
// write to a buffered line and a write-then-read of a core's own
// buffered line, writes and atomics that force flushes mid-stream, src
// reads, an iteration boundary, and a mid-script stats read (a flush
// point that must not disturb subsequent folding).
func foldScript(m *Machine, el, wt, vp *Region) {
	c0 := &Ctx{m: m, core: 0}
	c1 := &Ctx{m: m, core: 1}
	read := func(c *Ctx, r *Region, base, n int) {
		for i := base; i < base+n; i++ {
			c.Read(r, i)
		}
	}
	read(c0, el, 0, 64) // eight-element lines: one probe, seven memo folds each
	// c0's buffer now holds el line 7 (elements 56..63).
	c1.Write(el, 60) // cross-core write to the line c0 has buffered
	c0.Read(el, 61)  // c0 re-reads its buffered line after the foreign write
	c0.Write(el, 62) // a core writes the line it has buffered...
	c0.Read(el, 63)  // ...then reads it back
	c1.Read(el, 56)  // cross-core read of a line c0 holds dirty
	for i := 0; i < 48; i++ {
		c0.Read(el, i)   // stream A
		c0.Read(wt, i)   // stream B alternating: probe folds when fault-free
		c0.Exec(2)       // Exec must not flush the window
		c0.Read(vp, i%8) // vtxProp interleaved: flush + per-access path
	}
	c1.Read(el, 3) // other core: flush, window migrates
	read(c1, wt, 8, 40)
	c0.Write(el, 5) // store invalidates c1's folded line registry entry
	c1.Read(el, 5)  // must re-probe (registry re-validated), not replay
	for i := 0; i < 24; i++ {
		c0.Read(el, 64+i)
		c0.Atomic(vp, i%16) // non-foldable op: flush each time
	}
	for i := 0; i < 16; i++ {
		c0.ReadSrc(vp, i) // src reads never fold
	}
	_ = m.Stats()          // mid-script flush point
	read(c0, el, 100, 200) // folding must resume after the stats read
	m.BeginIteration()
	read(c0, el, 0, 32) // memo dropped; re-probe then fold
	for i := 0; i < 16; i++ {
		c0.Write(wt, i)
	}
	m.Barrier()
}

// allSiteFaults injects at every fault site the fold grid exercises, at
// rates high enough that the short script draws from each stream.
var allSiteFaults = faults.Config{
	Seed:            7,
	DRAMFlipRate:    0.05,
	DirFlipRate:     0.02,
	NoCDropRate:     0.01,
	SPParityRate:    0.02,
	LineBufFlipRate: 0.01,
}

// foldConfig builds one grid point: machine model, line buffer on/off,
// and the fault configuration (the zero value is fault-free).
func foldConfig(omega, lineBuf bool, fc faults.Config) Config {
	b, o := ScaledPair(4096, 8, 0.2)
	cfg := b
	if omega {
		cfg = o
	}
	cfg.DisableLineBuffer = !lineBuf
	cfg.Faults = fc
	return cfg
}

// accessObserver forwards metric samples to its buffer and discards
// per-access events. Being an AccessSink, it turns run-fold batching off
// when attached (recomputeFold), which makes it the per-access reference
// side of the equivalence grid.
type accessObserver struct{ *obs.Buffer }

func (accessObserver) Access(memsys.Cycles, memsys.Access, memsys.Result) {}

// runFoldScript executes foldScript on a fresh machine with a metrics
// buffer attached and returns every observable the equivalence checks
// compare: final stats, level profile, and the emitted sample stream.
// perAccess attaches the buffer through an accessObserver, forcing the
// per-access path; otherwise it attaches as a samples-only sink and
// batching stays enabled (with the line buffer on).
func runFoldScript(t *testing.T, cfg Config, perAccess bool) (MachineStats, map[string]uint64, map[string]uint64, []obs.MetricSample) {
	t.Helper()
	m := NewMachine(cfg)
	buf := obs.NewBuffer()
	if perAccess {
		m.AttachSink(accessObserver{buf})
	} else {
		m.AttachSink(buf)
	}
	if want := !perAccess && !cfg.DisableLineBuffer; m.foldEnabled != want {
		t.Fatalf("perAccess=%v linebuf=%v: foldEnabled=%v, want %v",
			perAccess, !cfg.DisableLineBuffer, m.foldEnabled, want)
	}
	el := m.Alloc("el", 4096, 8, memsys.KindEdgeList)
	wt := m.Alloc("wt", 4096, 8, memsys.KindNGraphData)
	vp := m.Alloc("vp", 4096, 8, memsys.KindVtxProp)
	if m.HasScratchpads() {
		m.ConfigureGraph(
			[]scratchpad.MonitorRegister{m.MonitorFor(vp)}, 4096,
			pisc.StandardMicrocode("add", pisc.OpFPAdd, false, false))
	}
	foldScript(m, el, wt, vp)
	counts, lats := levelProfile(m)
	return m.Stats(), counts, lats, buf.Samples()
}

// TestRunFoldEquivalence sweeps the full configuration grid — machine
// model × line buffer × fault injection — and requires the batched and
// per-access paths to be indistinguishable in stats, level profile, and
// metric samples. Fault injection at nonzero rates additionally pins the
// PRNG-stream invariant: folding must not consume or skip a single
// injector draw, or seeded fault campaigns would diverge.
func TestRunFoldEquivalence(t *testing.T) {
	for _, omega := range []bool{false, true} {
		for _, lineBuf := range []bool{true, false} {
			for _, faulty := range []bool{false, true} {
				name := fmt.Sprintf("omega=%v/linebuf=%v/faults=%v", omega, lineBuf, faulty)
				t.Run(name, func(t *testing.T) {
					var fc faults.Config
					if faulty {
						fc = allSiteFaults
					}
					cfg := foldConfig(omega, lineBuf, fc)
					stB, cntB, latB, smpB := runFoldScript(t, cfg, false)
					stS, cntS, latS, smpS := runFoldScript(t, cfg, true)
					if !reflect.DeepEqual(stB, stS) {
						t.Fatalf("stats diverge:\nbatched:    %+v\nper-access: %+v", stB, stS)
					}
					if !reflect.DeepEqual(cntB, cntS) {
						t.Fatalf("level counts diverge:\nbatched:    %v\nper-access: %v", cntB, cntS)
					}
					if !reflect.DeepEqual(latB, latS) {
						t.Fatalf("level latencies diverge:\nbatched:    %v\nper-access: %v", latB, latS)
					}
					if !reflect.DeepEqual(smpB, smpS) {
						t.Fatalf("metric samples diverge: batched %d vs per-access %d samples",
							len(smpB), len(smpS))
					}
					if faulty && stB.Faults.Total() == 0 {
						t.Fatal("faulty grid point injected no faults; rates too low to exercise the invariant")
					}
				})
			}
		}
	}
}
