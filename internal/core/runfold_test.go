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
// batching enabled (the default) and disabled (an access tracer
// attached, which turns folding off), a machine must produce bit-identical stats,
// level profiles, and metric samples for the same access script — across
// both machine models, with and without the line buffer, and under fault
// injection.

// A fold script is a byte program over a table of regions that drives a
// machine through every access kind and flush point; FuzzRunFold decodes
// arbitrary bytes as one. Each op is four bytes: a code, a selector and a
// little-endian 16-bit argument. The selector's low nibble picks the
// region (modulo the table), bits 4-6 a run length and bit 7 the core;
// the argument is an element index (modulo the region's count) or an Exec
// count. Top-level ops run on a Ctx of their core. opSequential and
// opParallel run the next arg%16+1 ops inside a one-item region on core
// 0 (the sequential helper) or inside a two-item ParallelForGrain, where
// item i runs the ops of core i; inside those, only accesses, Exec and
// Metrics run.
const (
	opRead           byte = iota // Read(r, i)
	opReadSrc                    // ReadSrc(r, i)
	opWrite                      // Write(r, i)
	opAtomic                     // Atomic(r, i)
	opRun                        // Read run-length consecutive elements from i
	opZip                        // Read r and the next region alternately, run-length pairs
	opExec                       // Exec(arg % 64)
	opMetrics                    // log every registry value (Machine.Metrics)
	opStats                      // Machine.Stats
	opBeginIteration             // Machine.BeginIteration
	opBarrier                    // Machine.Barrier
	opSequential                 // sequential block (core 0)
	opParallel                   // ParallelForGrain block
	numScriptOps
)

// scriptOp is one decoded op.
type scriptOp struct {
	code, sel byte
	arg       int
}

// decodeScript splits b into ops, dropping a trailing partial op.
func decodeScript(b []byte) []scriptOp {
	var ops []scriptOp
	for ; len(b) >= 4; b = b[4:] {
		ops = append(ops, scriptOp{code: b[0] % numScriptOps, sel: b[1], arg: int(b[2]) | int(b[3])<<8})
	}
	return ops
}

// scriptBuilder encodes fold scripts.
type scriptBuilder []byte

func (b *scriptBuilder) op(code byte, core, region, arg int) {
	*b = append(*b, code, byte(core<<7|region), byte(arg), byte(arg>>8))
}

// reads encodes n single Reads of consecutive elements.
func (b *scriptBuilder) reads(core, region, base, n int) {
	for i := base; i < base+n; i++ {
		b.op(opRead, core, region, i)
	}
}

// foldScript encodes an adversarial mix through the fold windows, over
// regions 0 (an edge list), 1 (edge weights) and 2 (vtxProp): long
// streaming runs, interleaved Exec ticks, vtxProp traffic (never folds; on
// OMEGA it draws fault PRNG), cross-core ownership churn, a foreign write
// to a buffered line and a write-then-read of a core's own buffered line,
// writes and atomics that force flushes mid-stream, src reads, an
// iteration boundary, and a mid-script stats read (a flush point that
// must not disturb subsequent folding).
func foldScript() []byte {
	const el, wt, vp = 0, 1, 2
	var b scriptBuilder
	b.reads(0, el, 0, 64) // eight-element lines: one probe, seven memo folds each
	// Core 0's buffer now holds el line 7 (elements 56..63).
	b.op(opWrite, 1, el, 60) // cross-core write to the line core 0 has buffered
	b.op(opRead, 0, el, 61)  // core 0 re-reads its buffered line after the foreign write
	b.op(opWrite, 0, el, 62) // a core writes the line it has buffered...
	b.op(opRead, 0, el, 63)  // ...then reads it back
	b.op(opRead, 1, el, 56)  // cross-core read of a line core 0 holds dirty
	for i := 0; i < 48; i++ {
		b.op(opRead, 0, el, i)   // stream A
		b.op(opRead, 0, wt, i)   // stream B alternating: probe folds when fault-free
		b.op(opExec, 0, 0, 2)    // Exec must not flush the window
		b.op(opRead, 0, vp, i%8) // vtxProp interleaved: flush + per-access path
	}
	b.op(opRead, 1, el, 3) // other core: flush, window migrates
	b.reads(1, wt, 8, 40)
	b.op(opWrite, 0, el, 5) // store invalidates core 1's folded line registry entry
	b.op(opRead, 1, el, 5)  // must re-probe (registry re-validated), not replay
	for i := 0; i < 24; i++ {
		b.op(opRead, 0, el, 64+i)
		b.op(opAtomic, 0, vp, i%16) // non-foldable op: flush each time
	}
	for i := 0; i < 16; i++ {
		b.op(opReadSrc, 0, vp, i) // src reads never fold
	}
	b.op(opStats, 0, 0, 0)   // mid-script flush point
	b.reads(0, el, 100, 200) // folding must resume after the stats read
	b.op(opBeginIteration, 0, 0, 0)
	b.reads(0, el, 0, 32) // memo dropped; re-probe then fold
	for i := 0; i < 16; i++ {
		b.op(opWrite, 0, wt, i)
	}
	b.op(opBarrier, 0, 0, 0)
	return b
}

// blockScript encodes scans through the scheduler: runs over every
// streaming region of fuzzRegions (five streams, so the four-entry
// registry evicts round-robin), an atomic on the open window's line,
// alternating pairs, sequential and
// parallel blocks on cores 0 and 1, and mid-script Metrics reads.
func blockScript() []byte {
	var b scriptBuilder
	for _, r := range []int{0, 1, 3, 4, 5, 0, 3} {
		b.op(opRun, 0, 7<<4|r, 5)
	}
	// An atomic on the open window's line (s4 elements 48..63): its plain
	// load under AtomicsAsPlain is a memo fold.
	b.op(opAtomic, 0, 3, 60)
	b.op(opZip, 1, 3<<4|4, 30) // 24 B and 40 B elements, alternating
	b.op(opMetrics, 0, 0, 0)
	b.op(opSequential, 0, 0, 3)
	b.op(opRun, 0, 2<<4|1, 70)
	b.op(opExec, 0, 0, 9)
	b.op(opZip, 0, 5<<4|0, 100)
	b.op(opMetrics, 0, 0, 0)
	b.op(opParallel, 0, 0, 5)
	b.op(opRun, 0, 4<<4|3, 7)
	b.op(opRun, 1, 4<<4|3, 9) // both cores scan the same lines
	b.op(opWrite, 1, 3, 12)
	b.op(opZip, 1, 6<<4|4, 3)
	b.op(opAtomic, 0, 2, 1)
	b.op(opBeginIteration, 0, 0, 0)
	b.op(opZip, 0, 7<<4|5, 0)
	b.op(opReadSrc, 1, 2, 4)
	b.op(opMetrics, 0, 0, 0)
	return b
}

// regionSpec describes one region a fold script runs over.
type regionSpec struct {
	name  string
	count int
	elem  int
	kind  memsys.Kind
}

// foldRegions are foldScript's regions.
var foldRegions = []regionSpec{
	{"el", 4096, 8, memsys.KindEdgeList},
	{"wt", 4096, 8, memsys.KindNGraphData},
	{"vp", 4096, 8, memsys.KindVtxProp},
}

// fuzzRegions are FuzzRunFold's regions: five streams with 4, 8, 12, 24
// and 40 B elements (12, 24 and 40 straddle lines) and a vtxProp region.
// The first three line up with foldRegions so foldScript seeds the fuzzer.
var fuzzRegions = []regionSpec{
	{"s8", 512, 8, memsys.KindEdgeList},
	{"s12", 512, 12, memsys.KindNGraphData},
	{"vp", 512, 8, memsys.KindVtxProp},
	{"s4", 512, 4, memsys.KindActiveList},
	{"s24", 512, 24, memsys.KindEdgeList},
	{"s40", 512, 40, memsys.KindNGraphData},
}

// scriptRunner executes decoded fold scripts on one machine.
type scriptRunner struct {
	m       *Machine
	regions []*Region
	// reads logs every registry value at each opMetrics.
	reads []uint64
}

func (s *scriptRunner) run(ops []scriptOp) {
	for k := 0; k < len(ops); k++ {
		op := ops[k]
		switch op.code {
		case opStats:
			_ = s.m.Stats()
		case opBeginIteration:
			s.m.BeginIteration()
		case opBarrier:
			s.m.Barrier()
		case opSequential, opParallel:
			n := min(op.arg%16+1, len(ops)-k-1)
			block := ops[k+1 : k+1+n]
			k += n
			if op.code == opSequential {
				sequential(s.m, func(ctx *Ctx) { s.block(ctx, block, -1) })
			} else {
				s.m.ParallelForGrain(2, 1, func(ctx *Ctx, i int) { s.block(ctx, block, i) })
			}
		default:
			s.step(&Ctx{m: s.m, core: int(op.sel >> 7)}, op)
		}
	}
}

// block runs a block's ops on ctx: all of them (item < 0) or those of
// core item.
func (s *scriptRunner) block(ctx *Ctx, ops []scriptOp, item int) {
	for _, op := range ops {
		if item < 0 || int(op.sel>>7) == item {
			s.step(ctx, op)
		}
	}
}

// step runs one access, Exec or Metrics op on c; other ops do nothing.
func (s *scriptRunner) step(c *Ctx, op scriptOp) {
	ri := int(op.sel&15) % len(s.regions)
	r := s.regions[ri]
	i := op.arg % r.Count
	n := int(op.sel>>4&7)*8 + 1
	switch op.code {
	case opRead:
		c.Read(r, i)
	case opReadSrc:
		c.ReadSrc(r, i)
	case opWrite:
		c.Write(r, i)
	case opAtomic:
		c.Atomic(r, i)
	case opRun:
		for j := 0; j < n; j++ {
			c.Read(r, (i+j)%r.Count)
		}
	case opZip:
		r2 := s.regions[(ri+1)%len(s.regions)]
		for j := 0; j < n; j++ {
			c.Read(r, (i+j)%r.Count)
			c.Read(r2, (i+j)%r2.Count)
		}
	case opExec:
		c.Exec(op.arg % 64)
	case opMetrics:
		s.m.Metrics().Each(func(d obs.Desc) { s.reads = append(s.reads, d.Read()) })
	}
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

// noTrace is an access tracer that discards every event. Attaching it
// turns run-fold batching off (recomputeFold), which makes it the
// per-access reference side of the equivalence grid.
func noTrace(memsys.Cycles, memsys.Access, memsys.Result) {}

// scriptResult is every observable the equivalence checks compare.
type scriptResult struct {
	stats     MachineStats
	counts    map[string]uint64
	latencies map[string]uint64
	samples   []obs.MetricSample
	reads     []uint64
}

// runScript executes ops over fresh regions on a fresh machine with a
// metrics buffer attached. perAccess also attaches noTrace, forcing the
// per-access path; otherwise batching stays enabled (with the line buffer
// on).
func runScript(t testing.TB, cfg Config, perAccess bool, specs []regionSpec, ops []scriptOp) scriptResult {
	t.Helper()
	m := NewMachine(cfg)
	buf := obs.NewBuffer()
	m.AttachSink(buf)
	if perAccess {
		m.TraceAccesses(noTrace)
	}
	if want := !perAccess && !cfg.DisableLineBuffer; m.foldEnabled != want {
		t.Fatalf("perAccess=%v linebuf=%v: foldEnabled=%v, want %v",
			perAccess, !cfg.DisableLineBuffer, m.foldEnabled, want)
	}
	s := newScriptRunner(m, specs)
	s.run(ops)
	counts, lats := levelProfile(m)
	return scriptResult{m.Stats(), counts, lats, buf.Samples(), s.reads}
}

// newScriptRunner allocates specs' regions on m, configuring the
// scratchpads over the vtxProp regions when m has them.
func newScriptRunner(m *Machine, specs []regionSpec) *scriptRunner {
	s := &scriptRunner{m: m}
	var monitors []scratchpad.MonitorRegister
	for _, sp := range specs {
		r := m.Alloc(sp.name, sp.count, sp.elem, sp.kind)
		s.regions = append(s.regions, r)
		if sp.kind == memsys.KindVtxProp {
			monitors = append(monitors, m.MonitorFor(r))
		}
	}
	if m.HasScratchpads() {
		m.ConfigureGraph(monitors, int(monitors[0].Count),
			pisc.StandardMicrocode("add", pisc.OpFPAdd, false, false))
	}
	return s
}

// runFoldScript runs foldScript over foldRegions (see runScript) and
// returns the final stats, level profile and emitted sample stream.
func runFoldScript(t *testing.T, cfg Config, perAccess bool) (MachineStats, map[string]uint64, map[string]uint64, []obs.MetricSample) {
	t.Helper()
	res := runScript(t, cfg, perAccess, foldRegions, decodeScript(foldScript()))
	return res.stats, res.counts, res.latencies, res.samples
}

// diffResults reports the first observable on which a folded run and its
// per-access reference differ, or "".
func diffResults(folded, ref scriptResult) string {
	switch {
	case !reflect.DeepEqual(folded.stats, ref.stats):
		return fmt.Sprintf("stats diverge:\nbatched:    %+v\nper-access: %+v", folded.stats, ref.stats)
	case !reflect.DeepEqual(folded.counts, ref.counts):
		return fmt.Sprintf("level counts diverge:\nbatched:    %v\nper-access: %v", folded.counts, ref.counts)
	case !reflect.DeepEqual(folded.latencies, ref.latencies):
		return fmt.Sprintf("level latencies diverge:\nbatched:    %v\nper-access: %v", folded.latencies, ref.latencies)
	case !reflect.DeepEqual(folded.samples, ref.samples):
		return fmt.Sprintf("metric samples diverge: batched %d vs per-access %d samples",
			len(folded.samples), len(ref.samples))
	case !reflect.DeepEqual(folded.reads, ref.reads):
		return "mid-script Metrics reads diverge"
	}
	return ""
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
					ops := decodeScript(foldScript())
					folded := runScript(t, cfg, false, foldRegions, ops)
					if d := diffResults(folded, runScript(t, cfg, true, foldRegions, ops)); d != "" {
						t.Fatal(d)
					}
					if faulty && folded.stats.Faults.Total() == 0 {
						t.Fatal("faulty grid point injected no faults; rates too low to exercise the invariant")
					}
				})
			}
		}
	}
}

// FuzzRunFold is the randomized fold differential: any fold script, over
// five streaming regions of 4-40 B elements and a vtxProp region, must
// give the batched path exactly the per-access reference's stats, level
// profile, sample stream and mid-script Metrics reads, on both machine
// models, fault-free and under allSiteFaults, with atomics native and
// under the AtomicsAsPlain ablation (whose load folds like any Read).
func FuzzRunFold(f *testing.F) {
	f.Add(foldScript())
	f.Add(blockScript())
	f.Fuzz(func(t *testing.T, script []byte) {
		ops := decodeScript(script)
		if len(ops) > 1024 {
			ops = ops[:1024] // bound one input's run time
		}
		for _, omega := range []bool{false, true} {
			for _, fc := range []faults.Config{{}, allSiteFaults} {
				for _, plain := range []bool{false, true} {
					cfg := foldConfig(omega, true, fc)
					cfg.AtomicsAsPlain = plain
					folded := runScript(t, cfg, false, fuzzRegions, ops)
					if d := diffResults(folded, runScript(t, cfg, true, fuzzRegions, ops)); d != "" {
						t.Fatalf("omega=%v faults=%v atomicsAsPlain=%v: %s", omega, fc.Enabled(), plain, d)
					}
				}
			}
		}
	})
}

// TestReadRangeLineEdges pins the memo-fold range Ctx.Read tests inline
// at line edges: a window opened by a read of element i covers exactly
// the elements that start in i's line — from its first to its last, with
// an element straddling two lines in the line it starts in.
func TestReadRangeLineEdges(t *testing.T) {
	m := NewMachine(testBaseline())
	r4 := m.Alloc("r4", 100, 4, memsys.KindActiveList)
	r8 := m.Alloc("r8", 100, 8, memsys.KindEdgeList)
	r12 := m.Alloc("r12", 100, 12, memsys.KindNGraphData)
	r40 := m.Alloc("r40", 100, 40, memsys.KindEdgeList)
	for _, tc := range []struct {
		name string
		r    *Region
		i    int
		lo   int
		span uint
	}{
		{"first element of a line", r8, 8, 8, 8},
		{"last element of a line", r8, 15, 8, 8},
		{"last line clipped at Count", r4, 99, 96, 4},
		{"element straddling into the next line", r12, 5, 0, 6},
		{"first element after a straddle", r12, 6, 6, 5},
		{"last element of a line after a straddle", r12, 10, 6, 5},
		{"straddling element with one other start", r40, 1, 0, 2},
		{"line holding one start", r40, 4, 4, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m.Barrier() // close any window left by the previous case
			c := &Ctx{m: m, core: 0}
			c.Read(tc.r, tc.i) // arms the memo and opens a window on i's line
			f := &m.fold
			if f.memoR != tc.r || f.memoLo != tc.lo || f.memoSpan != tc.span {
				t.Fatalf("window range [%d,+%d) of %v, want [%d,+%d) of %s",
					f.memoLo, f.memoSpan, f.memoR, tc.lo, tc.span, tc.r.Name)
			}
			line := memsys.LineAddr(tc.r.Addr(tc.i))
			for j := 0; j < tc.r.Count; j++ {
				in := memsys.LineAddr(tc.r.Addr(j)) == line
				if inRange := uint(j-f.memoLo) < f.memoSpan; inRange != in {
					t.Fatalf("element %d: in range %v, starts in the line %v", j, inRange, in)
				}
			}
			n := f.n
			c.Read(tc.r, tc.lo+int(tc.span)-1) // last element of the line: folds inline
			if f.n != n+1 {
				t.Fatalf("read of the line's last element did not fold")
			}
		})
	}
}
