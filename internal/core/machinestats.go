package core

import (
	"encoding/json"
	"fmt"
	"strings"

	"omega/internal/cpu"
	"omega/internal/faults"
	"omega/internal/memsys"
	"omega/internal/memsys/noc"
)

// MachineStats is the complete statistical snapshot of a finished run.
// Every table and figure of the paper is computed from these fields.
type MachineStats struct {
	// Name is the machine name ("baseline"/"omega").
	Name string
	// Cycles is simulated execution time (max core clock).
	Cycles memsys.Cycles
	// Instructions retired across all cores.
	Instructions uint64
	// TMAM is the summed cycle breakdown (Figure 3).
	TMAM cpu.Breakdown

	// L1HitRate / L2HitRate are measured cache hit rates (Figure 4(a)).
	L1HitRate float64
	L2HitRate float64
	// LLCHitRate is the "last-level storage" hit rate of Figure 15:
	// the baseline's L2 hit rate, or OMEGA's combined
	// (L2 hits + scratchpad accesses) / (L2 accesses + scratchpad accesses).
	LLCHitRate float64

	// SPAccesses / SPLocalFraction / SrcBufHitRate describe the
	// scratchpad side (zero on the baseline).
	SPAccesses      uint64
	SPLocalFraction float64
	SrcBufHitRate   float64
	// SPResident is the number of scratchpad-resident vertices.
	SPResident int
	// PISCOps is the number of offloaded atomic operations executed.
	PISCOps uint64

	// DRAM statistics (Figure 16).
	DRAMAccesses  uint64
	DRAMBytes     uint64
	DRAMRowHit    float64
	DRAMUtilized  float64 // achieved/peak bandwidth over the run
	DRAMQueueWait uint64

	// On-chip traffic in bytes, total and per class (Figure 17).
	NoCBytes     uint64
	NoCLineBytes uint64
	NoCWordBytes uint64
	NoCCtrlBytes uint64

	// NoCQueueWait accumulates crossbar queueing delay.
	NoCQueueWait uint64

	// Coherence activity.
	Invalidations uint64
	C2CTransfers  uint64

	// Stall attribution across cores (diagnostics).
	BlockingStall uint64
	WindowStall   uint64
	DrainStall    uint64
	OffloadStall  uint64

	// Issue-side access mix (Table II characterization).
	AccessesByKind [4]uint64
	Atomics        uint64
	SrcReads       uint64
	Iterations     uint64

	// Faults is the injected-fault log (all zero when injection is off —
	// the zero-cost-abstraction guarantee the resilience tests verify).
	Faults faults.Events
	// SPDegraded is how many vertex lines parity errors pushed back to
	// the cache hierarchy by the end of the run.
	SPDegraded int
}

// TotalAccesses sums the issue-side access counts.
func (s MachineStats) TotalAccesses() uint64 {
	var t uint64
	for _, v := range s.AccessesByKind {
		t += v
	}
	return t
}

// Speedup returns other.Cycles / s.Cycles: how much faster s is than
// other.
func (s MachineStats) Speedup(other MachineStats) float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(other.Cycles) / float64(s.Cycles)
}

// Stats snapshots the machine's statistics. The snapshot is a *view over
// the metric registry*: every field a registered probe covers is read
// through registry lookups, so MachineStats and the emitted sample
// stream are derived from the same descriptors and can never disagree.
// (DRAMUtilized and Faults stay direct: bandwidth utilization is a
// float ratio against peak, and the fault log is structured, neither
// representable as a uint64 sample.)
//
// With a sink attached, the first Stats call after the last iteration
// also flushes the registry once, labeled with the final iteration
// number: BeginIteration(n+1) closes iteration n, so the end-of-run
// flush closes the last iteration N — giving a complete 1..N series.
func (m *Machine) Stats() MachineStats {
	m.flushFold()
	if m.sink != nil && !m.finalEmitted {
		m.reg.Emit(m.sink, m.cfg.Name, m.iterations.Value())
		m.finalEmitted = true
	}
	g := m.reg.Get
	s := MachineStats{
		Name:   m.cfg.Name,
		Cycles: m.ElapsedCycles(),
	}
	s.Instructions = g("cpu", "instructions", "")
	s.TMAM = cpu.Breakdown{
		Retiring:    memsys.Cycles(g("cpu", "retiring", "")),
		Frontend:    memsys.Cycles(g("cpu", "frontend", "")),
		MemoryBound: memsys.Cycles(g("cpu", "memory_bound", "")),
		CoreBound:   memsys.Cycles(g("cpu", "core_bound", "")),
	}
	s.BlockingStall = g("cpu", "blocking_stall", "")
	s.WindowStall = g("cpu", "window_stall", "")
	s.DrainStall = g("cpu", "drain_stall", "")
	s.OffloadStall = g("cpu", "offload_stall", "")
	l1 := memsys.LevelL1.String()
	l2 := memsys.LevelL2Plus.String()
	l1h := g("cache", "read_hits", l1) + g("cache", "write_hits", l1)
	l1t := g("cache", "read_total", l1) + g("cache", "write_total", l1)
	if l1t > 0 {
		s.L1HitRate = float64(l1h) / float64(l1t)
	}
	l2h := g("cache", "read_hits", l2) + g("cache", "write_hits", l2)
	l2t := g("cache", "read_total", l2) + g("cache", "write_total", l2)
	if l2t > 0 {
		s.L2HitRate = float64(l2h) / float64(l2t)
	}
	s.LLCHitRate = s.L2HitRate
	if m.omega != nil {
		sp := g("scratchpad", "local", "") + g("scratchpad", "remote", "")
		s.SPAccesses = sp
		if sp > 0 {
			s.SPLocalFraction = float64(g("scratchpad", "local", "")) / float64(sp)
		}
		if sbt := g("scratchpad", "srcbuf_total", ""); sbt > 0 {
			s.SrcBufHitRate = float64(g("scratchpad", "srcbuf_hits", "")) / float64(sbt)
		}
		s.SPResident = int(g("scratchpad", "resident", ""))
		s.SPDegraded = int(g("scratchpad", "degraded", ""))
		s.PISCOps = g("pisc", "executed", "")
		if l2t+sp > 0 {
			s.LLCHitRate = float64(l2h+sp) / float64(l2t+sp)
		}
	}
	s.DRAMAccesses = g("dram", "accesses", "")
	s.DRAMBytes = g("dram", "bytes", "")
	if rt := g("dram", "row_total", ""); rt > 0 {
		s.DRAMRowHit = float64(g("dram", "row_hits", "")) / float64(rt)
	}
	s.DRAMUtilized = m.mem.Utilization(s.Cycles)
	s.DRAMQueueWait = g("dram", "queue_wait", "")
	s.NoCLineBytes = g("noc", "bytes", noc.ClassLine.String())
	s.NoCWordBytes = g("noc", "bytes", noc.ClassWord.String())
	s.NoCCtrlBytes = g("noc", "bytes", noc.ClassCtrl.String())
	s.NoCBytes = s.NoCLineBytes + s.NoCWordBytes + s.NoCCtrlBytes
	s.NoCQueueWait = g("noc", "queue_wait", "")
	s.Invalidations = g("coherence", "invalidations", "")
	s.C2CTransfers = g("coherence", "c2c_transfers", "")
	for k := range s.AccessesByKind {
		s.AccessesByKind[k] = g("machine", "accesses", memsys.Kind(k).String())
	}
	s.Atomics = g("machine", "atomics", "")
	s.SrcReads = g("machine", "src_reads", "")
	s.Iterations = g("machine", "iterations", "")
	s.Faults = m.faults.Events()
	return s
}

// Reset clears all simulation state (clocks, caches, stats), keeping the
// configuration and allocations.
func (m *Machine) Reset() {
	// Discard, don't flush: the cleared machine's state is complete and
	// deferred reads from before the reset must not leak into it.
	m.resetFold()
	for _, c := range m.cores {
		c.Reset()
	}
	m.xbar.Reset()
	m.mem.Reset()
	m.faults.Reset()
	clear(m.memoFaults)
	if m.omega != nil {
		m.omega.reset()
	} else {
		m.path.reset()
	}
	for i := range m.accessesByKind {
		m.accessesByKind[i].Reset()
	}
	m.atomicsIssued.Reset()
	m.srcReads.Reset()
	m.iterations.Reset()
	m.lbHits.Reset()
	m.lbStores.Reset()
	m.parRegions.Reset()
	m.seqRegions.Reset()
	m.schedItems.Reset()
	m.finalEmitted = false
	m.levelCount = [2 * memsys.NumLevels]uint64{}
	m.levelLatency = [2 * memsys.NumLevels]uint64{}
	if m.vertexProfile != nil {
		for i := range m.vertexProfile {
			m.vertexProfile[i] = 0
		}
	}
}

// JSON renders the stats as indented JSON for downstream tooling.
func (s MachineStats) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Summary renders the headline statistics as readable text.
func (s MachineStats) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] cycles=%d instr=%d\n", s.Name, s.Cycles, s.Instructions)
	fmt.Fprintf(&b, "  L1 %.1f%%  L2 %.1f%%  LLC(storage) %.1f%%\n",
		100*s.L1HitRate, 100*s.L2HitRate, 100*s.LLCHitRate)
	fmt.Fprintf(&b, "  DRAM: %d accesses, %.2f MB, util %.1f%%, row-hit %.1f%%\n",
		s.DRAMAccesses, float64(s.DRAMBytes)/(1<<20), 100*s.DRAMUtilized, 100*s.DRAMRowHit)
	fmt.Fprintf(&b, "  NoC: %.2f MB (line %.2f / word %.2f / ctrl %.2f)\n",
		float64(s.NoCBytes)/(1<<20), float64(s.NoCLineBytes)/(1<<20),
		float64(s.NoCWordBytes)/(1<<20), float64(s.NoCCtrlBytes)/(1<<20))
	if s.SPAccesses > 0 {
		fmt.Fprintf(&b, "  SP: %d accesses (%.1f%% local), srcbuf %.1f%%, resident %d, PISC ops %d\n",
			s.SPAccesses, 100*s.SPLocalFraction, 100*s.SrcBufHitRate, s.SPResident, s.PISCOps)
	}
	if f := s.Faults; f.Total() > 0 {
		fmt.Fprintf(&b, "  faults: ECC corr %d / det %d / silent %d, NoC drops %d (gave up %d), SP parity %d (degraded %d)\n",
			f.DRAMCorrected, f.DRAMDetected, f.DRAMSilent,
			f.NoCDropped, f.NoCGaveUp, f.SPParityErrors, s.SPDegraded)
		if f.DirFlips+f.LineBufFlips+f.ALUFlips > 0 {
			fmt.Fprintf(&b, "  faults: dir flips %d (scrubbed %d), linebuf flips %d (caught %d), ALU flips %d\n",
				f.DirFlips, f.DirScrubRepairs, f.LineBufFlips, f.LineBufGenCatches, f.ALUFlips)
		}
	}
	t := s.TMAM.Total()
	if t > 0 {
		fmt.Fprintf(&b, "  TMAM: retiring %.0f%% frontend %.0f%% mem %.0f%% core %.0f%%\n",
			100*float64(s.TMAM.Retiring)/float64(t),
			100*float64(s.TMAM.Frontend)/float64(t),
			100*float64(s.TMAM.MemoryBound)/float64(t),
			100*float64(s.TMAM.CoreBound)/float64(t))
	}
	return b.String()
}
