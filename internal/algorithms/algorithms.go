// Package algorithms implements the eight graph algorithms of the paper's
// evaluation (Table II) on the ligra framework: PageRank, BFS, SSSP, BC,
// Radii, CC, TC, and KC, together with plain-Go reference implementations
// used by the test suite to verify that the simulated runs compute correct
// results.
package algorithms

import (
	"omega/internal/core"
	"omega/internal/graph"
	"omega/internal/ligra"
)

// Spec is the Table II characterization of one algorithm plus a uniform
// entry point for the experiment harness.
type Spec struct {
	// Name is the short name used in the paper's figures.
	Name string
	// AtomicOp names the PISC operation(s) (Table II row 1-2).
	AtomicOp string
	// AtomicIntensity is the qualitative %atomic row ("high"/"medium"/"low").
	AtomicIntensity string
	// RandomIntensity is the qualitative %random row.
	RandomIntensity string
	// VtxPropBytes is the per-vertex property footprint.
	VtxPropBytes int
	// NumProps is the number of vtxProp structures.
	NumProps int
	// ActiveList reports whether the algorithm maintains a frontier.
	ActiveList bool
	// ReadsSrc reports whether updates read the source vertex's property.
	ReadsSrc bool
	// NeedsUndirected restricts the algorithm to symmetric graphs.
	NeedsUndirected bool
	// NeedsWeights restricts the algorithm to weighted graphs.
	NeedsWeights bool
	// Run executes the algorithm with default parameters on fw and
	// returns the machine statistics of the run.
	Run func(fw *ligra.Framework) core.MachineStats
}

// All returns the specs in the paper's Table II order.
func All() []Spec {
	return []Spec{
		{
			Name: "PageRank", AtomicOp: "fp add",
			AtomicIntensity: "high", RandomIntensity: "high",
			VtxPropBytes: 8, NumProps: 1, ActiveList: false, ReadsSrc: false,
			Run: func(fw *ligra.Framework) core.MachineStats {
				PageRank(fw, Params{Iterations: 1})
				return fw.Machine().Stats()
			},
		},
		{
			Name: "BFS", AtomicOp: "unsigned comp.",
			AtomicIntensity: "low", RandomIntensity: "high",
			VtxPropBytes: 4, NumProps: 1, ActiveList: true, ReadsSrc: false,
			Run: func(fw *ligra.Framework) core.MachineStats {
				BFS(fw, DefaultRoot(fw.Graph()))
				return fw.Machine().Stats()
			},
		},
		{
			Name: "SSSP", AtomicOp: "signed min & bool comp.",
			AtomicIntensity: "high", RandomIntensity: "high",
			VtxPropBytes: 8, NumProps: 2, ActiveList: true, ReadsSrc: true,
			NeedsWeights: true,
			Run: func(fw *ligra.Framework) core.MachineStats {
				SSSP(fw, DefaultRoot(fw.Graph()))
				return fw.Machine().Stats()
			},
		},
		{
			Name: "BC", AtomicOp: "fp add",
			AtomicIntensity: "medium", RandomIntensity: "high",
			VtxPropBytes: 8, NumProps: 1, ActiveList: true, ReadsSrc: true,
			Run: func(fw *ligra.Framework) core.MachineStats {
				BC(fw, DefaultRoot(fw.Graph()))
				return fw.Machine().Stats()
			},
		},
		{
			Name: "Radii", AtomicOp: "or & signed min",
			AtomicIntensity: "high", RandomIntensity: "high",
			VtxPropBytes: 12, NumProps: 3, ActiveList: true, ReadsSrc: true,
			Run: func(fw *ligra.Framework) core.MachineStats {
				Radii(fw, 16, 12345)
				return fw.Machine().Stats()
			},
		},
		{
			Name: "CC", AtomicOp: "signed min",
			AtomicIntensity: "high", RandomIntensity: "high",
			VtxPropBytes: 8, NumProps: 2, ActiveList: true, ReadsSrc: true,
			NeedsUndirected: true,
			Run: func(fw *ligra.Framework) core.MachineStats {
				CC(fw)
				return fw.Machine().Stats()
			},
		},
		{
			Name: "TC", AtomicOp: "signed add",
			AtomicIntensity: "low", RandomIntensity: "low",
			VtxPropBytes: 8, NumProps: 1, ActiveList: false, ReadsSrc: false,
			NeedsUndirected: true,
			Run: func(fw *ligra.Framework) core.MachineStats {
				TC(fw)
				return fw.Machine().Stats()
			},
		},
		{
			Name: "KC", AtomicOp: "signed add",
			AtomicIntensity: "low", RandomIntensity: "low",
			VtxPropBytes: 4, NumProps: 1, ActiveList: false, ReadsSrc: false,
			NeedsUndirected: true,
			Run: func(fw *ligra.Framework) core.MachineStats {
				KC(fw, 0)
				return fw.Machine().Stats()
			},
		},
	}
}

// ByName returns the spec with the given name, or false.
func ByName(name string) (Spec, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// DefaultRoot picks a deterministic traversal root that reaches a large
// component, mirroring the paper's use of well-connected roots: among a
// small set of high-out-degree candidates (plus the hottest vertex), it
// returns the one whose BFS covers the most vertices.
func DefaultRoot(g *graph.Graph) uint32 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	// Candidates: top-4 by out-degree plus vertex 0 (the in-degree hub
	// after reordering) and a mid-ID vertex (late arrival in growth
	// models).
	type cand struct {
		v   uint32
		deg int
	}
	best4 := make([]cand, 0, 4)
	for v := 0; v < n; v++ {
		d := g.OutDegree(graph.VertexID(v))
		if len(best4) < 4 {
			best4 = append(best4, cand{uint32(v), d})
			continue
		}
		minI := 0
		for i := 1; i < 4; i++ {
			if best4[i].deg < best4[minI].deg {
				minI = i
			}
		}
		if d > best4[minI].deg {
			best4[minI] = cand{uint32(v), d}
		}
	}
	candidates := []uint32{0, uint32(n / 2), uint32(n - 1)}
	for _, c := range best4 {
		candidates = append(candidates, c.v)
	}
	bestRoot, bestCover := uint32(0), -1
	for _, r := range candidates {
		if g.OutDegree(graph.VertexID(r)) == 0 {
			continue
		}
		cover := 0
		for _, d := range ReferenceBFS(g, r) {
			if d != ^uint32(0) {
				cover++
			}
		}
		if cover > bestCover || (cover == bestCover && r < bestRoot) {
			bestRoot, bestCover = r, cover
		}
	}
	return bestRoot
}

// Params bundles the tunables shared by iterative algorithms.
type Params struct {
	// Iterations bounds iteration counts (PageRank). The paper simulates
	// a single PageRank iteration due to gem5 runtimes; we default to
	// the same.
	Iterations int
	// Damping is PageRank's damping factor.
	Damping float64
}

// withDefaults fills zero values.
func (p Params) withDefaults() Params {
	if p.Iterations <= 0 {
		p.Iterations = 1
	}
	if p.Damping == 0 {
		p.Damping = 0.85
	}
	return p
}

// unreachable32 is the sentinel for "not yet assigned" unsigned values.
const unreachable32 = ^uint64(0)

// infinity is the sentinel distance for SSSP (int64 half-max avoids
// overflow when adding edge weights).
const infinity = int64(1) << 60
