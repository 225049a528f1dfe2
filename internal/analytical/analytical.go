// Package analytical implements the paper's high-level performance model
// for very large datasets (uk, twitter — Figure 20), which gem5 (and our
// detailed simulator) cannot traverse in reasonable time.
//
// The paper's recipe, which we follow exactly:
//   - DRAM access count for vtxProp is derived from the fraction of
//     accesses covered by the scratchpad-resident hot set (measured or
//     taken from the access skew), with a 100-cycle DRAM access;
//   - remote scratchpad accesses cost the measured crossbar average of
//     17 cycles;
//   - baseline atomic execution is charged the same cycles as the PISC
//     routine ("a conservative approach");
//   - LLC and scratchpad hit latencies are accounted.
package analytical

import (
	"fmt"

	"omega/internal/memsys"
)

// Params describes one large-graph scenario.
type Params struct {
	// Name labels the dataset ("uk-2002", "twitter-2010").
	Name string
	// Vertices and Edges give the graph scale.
	Vertices int64
	Edges    int64
	// HotCoverage is the fraction of vtxProp entries the scratchpads can
	// hold (e.g. 0.05 for twitter with 16 MB of scratchpad).
	HotCoverage float64
	// HotAccessShare is the fraction of vtxProp accesses that target the
	// scratchpad-resident vertices (from the skew profile, e.g. 0.47 for
	// twitter at 5% coverage).
	HotAccessShare float64
	// BaselineLLCHitRate is the baseline machine's LLC hit rate for the
	// workload (the paper measures it with VTune on the Xeon).
	BaselineLLCHitRate float64
	// AtomicsPerEdge and RandomReadsPerEdge characterize the algorithm
	// (1 and 0 for PageRank push; BFS has ~1 random read and rare CAS).
	AtomicsPerEdge     float64
	RandomReadsPerEdge float64
	// ActiveEdgeFraction scales how many edges are traversed (1 for
	// PageRank; <1 for traversals that touch each edge about once).
	ActiveEdgeFraction float64
}

// Model holds the machine constants of the paper's high-level simulator.
type Model struct {
	Cores int
	// DRAMCycles is the flat off-chip access cost (100 in the paper).
	DRAMCycles float64
	// RemoteSPCycles is the average crossbar round trip (17).
	RemoteSPCycles float64
	// LLCHitCycles / SPHitCycles are on-chip access costs.
	LLCHitCycles float64
	SPHitCycles  float64
	// AtomicCycles is the PISC routine cost, charged to baseline cores
	// as well (the paper's conservative choice).
	AtomicCycles float64
	// StreamCyclesPerEdge covers the sequential edge-list work per edge
	// (amortized: mostly L1 hits plus the occasional line fill).
	StreamCyclesPerEdge float64
	// FrameworkCyclesPerEdge is the machine-independent per-edge cost of
	// the framework (frontier maintenance, conversions, copy passes,
	// issue slots), calibrated once against the detailed simulator.
	FrameworkCyclesPerEdge float64
	// MLP is the number of overlapped outstanding misses for
	// non-blocking accesses.
	MLP float64
	// LocalSPFraction is how often a scratchpad access lands on the
	// local slice (1/Cores for uniform partitioning).
	LocalSPFraction float64
}

// DefaultModel returns the constants of the paper's §X "Scalability to
// large datasets" study at Table III geometry.
func DefaultModel() Model {
	return Model{
		Cores:                  memsys.NumCores,
		DRAMCycles:             100,
		RemoteSPCycles:         17,
		LLCHitCycles:           6,
		SPHitCycles:            float64(memsys.SPLat),
		AtomicCycles:           9,
		StreamCyclesPerEdge:    2.5,
		FrameworkCyclesPerEdge: 26,
		MLP:                    16,
		LocalSPFraction:        1.0 / memsys.NumCores,
	}
}

// Result reports estimated per-machine cycles and the speedup.
type Result struct {
	Params         Params
	BaselineCycles float64
	OMEGACycles    float64
}

// Speedup returns baseline/OMEGA.
func (r Result) Speedup() float64 {
	if r.OMEGACycles == 0 {
		return 0
	}
	return r.BaselineCycles / r.OMEGACycles
}

// Estimate runs the high-level model for one scenario.
//
// Every product that feeds a sum is wrapped in an explicit float64
// conversion: that forces the rounding Go otherwise lets a compiler skip
// by fusing the multiply-add (arm64 does), so the estimate is the same
// bits on every architecture.
func (m Model) Estimate(p Params) Result {
	edges := float64(p.Edges) * p.ActiveEdgeFraction
	perCoreEdges := edges / float64(m.Cores)

	// --- Baseline ---
	// Every atomic blocks the core: on-chip hit or DRAM miss, plus the
	// (PISC-equal) atomic execution cost.
	atomicAvg := float64(p.BaselineLLCHitRate*m.LLCHitCycles) +
		float64((1-p.BaselineLLCHitRate)*m.DRAMCycles) + m.AtomicCycles
	// Random reads overlap in the OoO window.
	readAvg := (float64(p.BaselineLLCHitRate*m.LLCHitCycles) +
		float64((1-p.BaselineLLCHitRate)*m.DRAMCycles)) / m.MLP
	baseline := perCoreEdges * (m.StreamCyclesPerEdge + m.FrameworkCyclesPerEdge +
		float64(p.AtomicsPerEdge*atomicAvg) +
		float64(p.RandomReadsPerEdge*readAvg))

	// --- OMEGA ---
	// Hot-share accesses are offloaded word-size to the home PISC
	// (fire-and-forget); the cold share behaves like the baseline but
	// against the halved LLC — the paper approximates its hit rate with
	// the same measured LLC rate.
	coldAtomic := float64(p.BaselineLLCHitRate*m.LLCHitCycles) +
		float64((1-p.BaselineLLCHitRate)*m.DRAMCycles) + m.AtomicCycles
	hotAtomicCoreCost := 1.0 // issue the word packet and move on
	omegaAtomic := float64(p.HotAccessShare*hotAtomicCoreCost) + float64((1-p.HotAccessShare)*coldAtomic)
	// Random reads: hot ones hit local/remote scratchpads (overlapped),
	// cold ones as baseline.
	hotRead := (float64(m.LocalSPFraction*m.SPHitCycles) +
		float64((1-m.LocalSPFraction)*(m.RemoteSPCycles+m.SPHitCycles))) / m.MLP
	coldRead := readAvg
	omegaRead := float64(p.HotAccessShare*hotRead) + float64((1-p.HotAccessShare)*coldRead)
	// PISC throughput check: the engines must absorb the offloaded rate;
	// if they cannot, the offload cost rises to the serialization bound.
	offloadedOps := edges * p.AtomicsPerEdge * p.HotAccessShare
	omega := perCoreEdges * (m.StreamCyclesPerEdge + m.FrameworkCyclesPerEdge +
		float64(p.AtomicsPerEdge*omegaAtomic) +
		float64(p.RandomReadsPerEdge*omegaRead))
	// Pipelined engines start an update every scratchpad access.
	piscBound := offloadedOps * m.AtomicCycles / (m.SPHitCycles * float64(m.Cores))
	if piscBound > omega {
		omega = piscBound
	}

	return Result{Params: p, BaselineCycles: baseline, OMEGACycles: omega}
}

// PageRankScenario builds Figure 20's PageRank parameters for a graph.
func PageRankScenario(name string, vertices, edges int64, hotCoverage, hotShare, llcHit float64) Params {
	return Params{
		Name: name, Vertices: vertices, Edges: edges,
		HotCoverage: hotCoverage, HotAccessShare: hotShare,
		BaselineLLCHitRate: llcHit,
		AtomicsPerEdge:     1, RandomReadsPerEdge: 0,
		ActiveEdgeFraction: 1,
	}
}

// BFSScenario builds Figure 20's BFS parameters: roughly one random
// vtxProp read per edge (the visited check) and a CAS only on first
// touches (~vertices/edges of the edges).
func BFSScenario(name string, vertices, edges int64, hotCoverage, hotShare, llcHit float64) Params {
	return Params{
		Name: name, Vertices: vertices, Edges: edges,
		HotCoverage: hotCoverage, HotAccessShare: hotShare,
		BaselineLLCHitRate: llcHit,
		AtomicsPerEdge:     float64(vertices) / float64(edges),
		RandomReadsPerEdge: 1,
		ActiveEdgeFraction: 1,
	}
}

// String renders a result row.
func (r Result) String() string {
	return fmt.Sprintf("%-12s baseline=%.3e omega=%.3e speedup=%.2fx",
		r.Params.Name, r.BaselineCycles, r.OMEGACycles, r.Speedup())
}
