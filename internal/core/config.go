// Package core assembles the simulated machines of the OMEGA study: the
// baseline chip multiprocessor (Table III, "Baseline-specific") and the
// OMEGA heterogeneous cache/scratchpad machine ("OMEGA-specific"), along
// with the execution-driven scheduler that runs the Ligra-like framework
// on them and the statistics every experiment consumes.
package core

import (
	"fmt"

	"omega/internal/cpu"
	"omega/internal/faults"
	"omega/internal/memsys"
	"omega/internal/memsys/dram"
)

// Config describes one simulated machine.
type Config struct {
	// Name labels the machine in results ("baseline", "omega").
	Name string
	// NumCores is the core count (16 in Table III).
	NumCores int
	// Core is the per-core timing model configuration.
	Core cpu.Config

	// L1Bytes/L1Ways size each private L1 data cache.
	L1Bytes int
	L1Ways  int
	// L2BytesPerCore/L2Ways size each shared L2 bank.
	L2BytesPerCore int
	L2Ways         int
	// L2Lat is the L2 bank access latency.
	L2Lat memsys.Cycles

	// SPBytesPerCore sizes each scratchpad slice; 0 disables scratchpads
	// (baseline machine).
	SPBytesPerCore int
	// SPLat is the scratchpad access latency (3 in Table III).
	SPLat memsys.Cycles
	// PISC enables the processing-in-scratchpad engines. Disabling it
	// while keeping scratchpads reproduces the §X.A "storage-only"
	// ablation.
	PISC bool
	// SPChunkSize is the vertex-interleaving chunk of the scratchpad
	// partition unit; OMEGA matches it to OpenMPChunk (§V.D). 0 means
	// "match OpenMPChunk".
	SPChunkSize int
	// SrcBufEntries sizes the per-core source vertex buffer (§V.C);
	// 0 disables the buffer.
	SrcBufEntries int
	// SPResidentCap bounds how many vertices are scratchpad-resident
	// regardless of capacity; 0 means capacity-bound. ScaledPair leaves it
	// 0; Figure 19 sets it to emulate scratchpads smaller than 20% of
	// vtxProp while the arrays stay 20%-sized.
	SPResidentCap int

	// AtomicOpCycles is the core-side cost of executing an atomic
	// read-modify-write beyond the memory access itself.
	AtomicOpCycles memsys.Cycles
	// InvalidationCycles is the latency exposed to an atomic that must
	// invalidate remote sharers before completing.
	InvalidationCycles memsys.Cycles
	// AtomicsAsPlain turns every atomic into a plain read+write —
	// the §III experiment estimating atomic-instruction overhead.
	AtomicsAsPlain bool
	// L1Prefetch enables a next-line prefetcher for the sequential
	// access classes (edgeList, nGraphData): on an L1 miss, the
	// following line is fetched in the background. Table III lists no
	// prefetcher, so it defaults off; it exists for sensitivity studies.
	L1Prefetch bool
	// LLCPollution injects synthetic fills into the L2 banks at this
	// rate (pollution fills per demand L2 access), modeling the
	// instruction/OS/TLB traffic that shares a real machine's LLC but is
	// absent from the framework's access stream. 0 disables. The
	// Extension E5 experiment sweeps it; see EXPERIMENTS.md.
	LLCPollution float64
	// HybridPagePolicy closes DRAM rows after low-locality (vtxProp)
	// accesses while keeping them open for streams — §IX direction 3.
	HybridPagePolicy bool
	// LockedLines pins the hot vtxProp lines in the L2 banks instead of
	// adding scratchpads — the §IX "locked cache vs. scratchpad"
	// alternative. Data still moves at cache-line granularity, which is
	// the paper's argument against it. Ignored on OMEGA machines.
	LockedLines bool

	// DRAM configures off-chip memory.
	DRAM dram.Config
	// NoCBaseLatency/NoCBusBytes configure the crossbar (Table III:
	// 128-bit bus). The paper measures ~17 cycles average for a remote
	// round trip.
	NoCBaseLatency memsys.Cycles
	NoCBusBytes    int

	// Faults configures the seed-driven fault injector for the resilience
	// experiments at its six sites: DRAM read bit-flips behind SECDED
	// ECC, NoC message drops with bounded retransmission, scratchpad
	// parity errors that degrade vertex lines to the cache hierarchy,
	// coherence-directory tag flips, same-line memo corruption, and PISC
	// ALU transients. The zero value (all rates 0) disables injection
	// entirely and is the default.
	Faults faults.Config

	// DisableLineBuffer turns off the same-line read fast path (each
	// core's L1 same-line memo, Cache.SameLineReadHit), and with it
	// run-fold batching. Results are bit-identical either way except when
	// Faults.DirFlipRate or Faults.LineBufFlipRate is nonzero: the full
	// probe draws a directory flip per access that a memo hit skips, and
	// memo corruptions are drawn only on the fast path's full probes, so
	// those injector streams differ. The knob exists so equivalence tests
	// can compare the memoized path against the full probe.
	DisableLineBuffer bool

	// OpenMPChunk is the scheduling chunk size of the framework's
	// parallel loops.
	OpenMPChunk int
	// DynamicSchedule hands chunks to idle cores on demand (Ligra's
	// work-stealing behaviour, and the "load balancing by fine-tuning
	// the scheduling" of §III). When false, chunks are assigned
	// statically round-robin — the §V.D scenario.
	DynamicSchedule bool
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.NumCores <= 0 || c.NumCores > 64 {
		return fmt.Errorf("core: NumCores %d out of range", c.NumCores)
	}
	if c.L1Bytes <= 0 || c.L1Ways <= 0 {
		return fmt.Errorf("core: bad L1 geometry")
	}
	if c.L2BytesPerCore <= 0 || c.L2Ways <= 0 {
		return fmt.Errorf("core: bad L2 geometry")
	}
	if c.SPBytesPerCore < 0 {
		return fmt.Errorf("core: negative scratchpad size")
	}
	if c.PISC && c.SPBytesPerCore == 0 {
		return fmt.Errorf("core: PISC requires scratchpads")
	}
	if c.SPBytesPerCore > 0 && c.SPLat <= 0 {
		return fmt.Errorf("core: scratchpads need a positive SPLat")
	}
	if c.OpenMPChunk <= 0 {
		return fmt.Errorf("core: OpenMPChunk must be positive")
	}
	if c.DRAM.Channels <= 0 || c.DRAM.BanksPerChan <= 0 || c.DRAM.RowBytes <= 0 {
		return fmt.Errorf("core: bad DRAM geometry (channels=%d banks=%d row=%d)",
			c.DRAM.Channels, c.DRAM.BanksPerChan, c.DRAM.RowBytes)
	}
	if c.DRAM.ServiceCyclesPerLine <= 0 {
		return fmt.Errorf("core: DRAM ServiceCyclesPerLine must be positive")
	}
	if c.NoCBusBytes <= 0 {
		return fmt.Errorf("core: NoCBusBytes must be positive")
	}
	if !(c.LLCPollution >= 0) {
		return fmt.Errorf("core: LLCPollution %g is not a non-negative rate", c.LLCPollution)
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("core: %v", err)
	}
	return nil
}

// TotalOnChipStorage returns L2 plus scratchpad bytes across the chip
// (both machines of the paper are "same-sized" by this measure).
func (c Config) TotalOnChipStorage() int {
	return c.NumCores * (c.L2BytesPerCore + c.SPBytesPerCore)
}

// chunkSize resolves the scratchpad chunk (0 = match OpenMP).
func (c Config) chunkSize() int {
	if c.SPChunkSize > 0 {
		return c.SPChunkSize
	}
	return c.OpenMPChunk
}

// Baseline returns the Table III baseline CMP: 16 cores, 32 KB L1D,
// 2 MB shared L2 bank per core.
func Baseline() Config {
	return Config{
		Name:               "baseline",
		NumCores:           16,
		Core:               cpu.DefaultConfig(),
		L1Bytes:            32 << 10,
		L1Ways:             8,
		L2BytesPerCore:     2 << 20,
		L2Ways:             8,
		L2Lat:              6,
		AtomicOpCycles:     16,
		InvalidationCycles: 12,
		DRAM:               dram.DefaultConfig(),
		NoCBaseLatency:     8,
		NoCBusBytes:        16,
		OpenMPChunk:        64,
		DynamicSchedule:    true,
	}
}

// OMEGA returns the Table III OMEGA machine: half of each baseline L2 bank
// re-purposed as a scratchpad slice with a PISC engine.
func OMEGA() Config {
	c := Baseline()
	c.Name = "omega"
	c.L2BytesPerCore = 1 << 20
	c.SPBytesPerCore = 1 << 20
	c.SPLat = 3
	c.PISC = true
	c.SrcBufEntries = 64
	return c
}

// CheckCoverage rejects a scratchpad coverage that is not a finite
// fraction in (0, 1]. ScaledPair does not check: below one L2 bank set per
// core it floors the scratchpads, so a zero or negative coverage would
// silently size them like a small positive one.
func CheckCoverage(coverage float64) error {
	if !(coverage > 0 && coverage <= 1) {
		return fmt.Errorf("%g is not in (0, 1]", coverage)
	}
	return nil
}

// ScaledPair returns a (baseline, omega) pair whose on-chip storage is
// scaled to a dataset, preserving the paper's operating regime: the OMEGA
// scratchpads hold `coverage` (e.g. 0.20) of the graph's vtxProp, and the
// baseline gets the same total storage as cache. bytesPerVertex must be
// the scratchpad line size (sum of vtxProp entry sizes plus active bits).
//
// gem5 forces the paper to evaluate graphs of a few million vertices
// against 32 MB of storage; our synthetic graphs are smaller, so the
// machines scale down with them instead (DESIGN.md §3).
func ScaledPair(numVertices, bytesPerVertex int, coverage float64) (Config, Config) {
	base := Baseline()
	om := OMEGA()
	spTotal := int(coverage * float64(numVertices) * float64(bytesPerVertex))
	perCore := spTotal / om.NumCores
	perCore = roundUpTo(perCore, memsys.LineSize*om.L2Ways)
	minBank := memsys.LineSize * om.L2Ways
	if perCore < minBank {
		perCore = minBank
	}
	om.SPBytesPerCore = perCore
	om.L2BytesPerCore = perCore
	base.L2BytesPerCore = 2 * perCore
	// A real LLC is shared with instruction, OS, TLB-walk and prefetch
	// traffic that the framework's access stream does not contain. One
	// pollution fill per demand access calibrates the scaled baseline's
	// PageRank LLC hit rate to the paper's measured 44-53 % (Figure 15);
	// both machines receive it equally.
	base.LLCPollution = 1.0
	om.LLCPollution = 1.0
	// At the paper's multi-million-vertex scale, chunk-64 interleaving
	// spreads the hot vertices across all scratchpad slices; at scaled-
	// down vertex counts the same chunk would concentrate the hottest 64
	// vertices (a large access share) on slice 0 and its PISC. A small
	// partition chunk restores the paper's hot-spread regime.
	om.SPChunkSize = 4
	// The L1 must scale with the rest of the machine: in the paper's
	// testbed the 32 KB L1 holds ~0.4 % of the hot vertex set; leaving
	// it full-size here would let each L1 swallow the whole hot set and
	// erase the phenomenon under study.
	l1 := roundUpTo(perCore/8, memsys.LineSize*base.L1Ways)
	if min := memsys.LineSize * base.L1Ways; l1 < min {
		l1 = min
	}
	if l1 > 32<<10 {
		l1 = 32 << 10
	}
	base.L1Bytes = l1
	om.L1Bytes = l1
	// Scaling must never emit a machine NewMachine would reject: any
	// violation here is a bug in the scaling math, so fail fast with the
	// validator's message instead of producing nonsense stats downstream.
	for _, cfg := range []Config{base, om} {
		if err := cfg.Validate(); err != nil {
			panic(fmt.Sprintf("core: ScaledPair(%d, %d, %g) produced invalid %s config: %v",
				numVertices, bytesPerVertex, coverage, cfg.Name, err))
		}
	}
	return base, om
}

func roundUpTo(v, multiple int) int {
	if multiple <= 0 {
		return v
	}
	return (v + multiple - 1) / multiple * multiple
}
