// Package slicing implements the graph slicing/segmentation techniques of
// paper §VII for graphs whose vertex data exceeds on-chip storage:
//
//   - Plain slicing (§VII.2, after [19][45]): partition the destination
//     vertices into ranges small enough that a slice's whole vtxProp fits
//     on chip; process one slice at a time and merge.
//   - Power-law-aware slicing (§VII.3, the paper's proposal): a slice only
//     needs the vtxProp of its *most-connected* vertices to fit — the cold
//     tail streams from memory anyway — which cuts the slice count by up
//     to 5x on natural graphs.
//
// The package provides the slicing planner, a functional sliced PageRank
// used to verify that slice-by-slice processing computes the same result,
// and the bookkeeping (per-slice edge counts, replication overhead) the
// §VII experiment reports.
package slicing

import (
	"fmt"

	"omega/internal/graph"
)

// Mode selects the slicing strategy.
type Mode int

const (
	// Plain requires each slice's full vtxProp range to fit on chip.
	Plain Mode = iota
	// PowerLawAware requires only each slice's hot (top-connectivity)
	// vertices to fit, exploiting the 80/20 access skew.
	PowerLawAware
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Plain:
		return "plain"
	case PowerLawAware:
		return "power-law-aware"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Slice is one unit of slice-by-slice processing: the destination-vertex
// range [Lo, Hi) whose updates this slice performs, and how many edges
// target it.
type Slice struct {
	Lo, Hi int
	Edges  int
}

// Plan is the output of the slicing planner.
type Plan struct {
	Mode Mode
	// CapacityVertices is how many vtxProp entries fit on chip.
	CapacityVertices int
	// HotFraction is the share of vertices treated as hot (power-law
	// mode; 0.20 in the paper).
	HotFraction float64
	Slices      []Slice
	// TotalEdges across slices (equals the graph's edge count).
	TotalEdges int
}

// NumSlices returns the slice count — the quantity §VII.3 reduces by ~5x.
func (p Plan) NumSlices() int { return len(p.Slices) }

// BuildPlan partitions g (which must be in-degree reordered for power-law
// mode: hottest vertices first) into slices for the given on-chip
// capacity (in vtxProp entries).
func BuildPlan(g *graph.Graph, capacityVertices int, hotFraction float64, mode Mode) Plan {
	n := g.NumVertices()
	if capacityVertices < 1 {
		capacityVertices = 1
	}
	if hotFraction <= 0 || hotFraction > 1 {
		hotFraction = 0.20
	}
	p := Plan{Mode: mode, CapacityVertices: capacityVertices, HotFraction: hotFraction}
	if n == 0 {
		return p
	}
	// verticesPerSlice is how many destination vertices one slice may
	// cover.
	verticesPerSlice := capacityVertices
	if mode == PowerLawAware {
		// Only the hot prefix of each slice must fit: a slice of V
		// vertices has ~hotFraction*V hot members (the graph is ordered
		// hottest-first, so we interleave slices across the hot prefix;
		// equivalently each slice may cover capacity/hotFraction
		// vertices).
		verticesPerSlice = int(float64(capacityVertices) / hotFraction)
	}
	if verticesPerSlice < 1 {
		verticesPerSlice = 1
	}
	for lo := 0; lo < n; lo += verticesPerSlice {
		hi := lo + verticesPerSlice
		if hi > n {
			hi = n
		}
		edges := 0
		for v := lo; v < hi; v++ {
			edges += g.InDegree(graph.VertexID(v))
		}
		p.Slices = append(p.Slices, Slice{Lo: lo, Hi: hi, Edges: edges})
		p.TotalEdges += edges
	}
	return p
}

// PageRankSliced runs PageRank iteration-by-iteration, processing the
// graph one slice at a time (each slice applies only the updates into its
// destination range) and merging at iteration end. It is functionally
// identical to unsliced PageRank — the property the §VII experiment
// verifies — while touching only one slice's vtxProp at a time.
func PageRankSliced(g *graph.Graph, plan Plan, iterations int, damping float64) []float64 {
	n := g.NumVertices()
	curr := make([]float64, n)
	next := make([]float64, n)
	for v := range curr {
		curr[v] = 1.0 / float64(n)
	}
	for it := 0; it < iterations; it++ {
		for v := range next {
			next[v] = 0
		}
		// Slice-by-slice: each slice pulls along the in-edges of its
		// destination range, so its vtxProp writes stay inside the
		// slice's on-chip window.
		for _, sl := range plan.Slices {
			for d := sl.Lo; d < sl.Hi; d++ {
				for _, s := range g.InNeighbors(graph.VertexID(d)) {
					deg := g.OutDegree(graph.VertexID(s))
					if deg > 0 {
						next[d] += curr[s] / float64(deg)
					}
				}
			}
		}
		// Merge: fold damping (the per-slice results are disjoint, so
		// the merge is the plain fold).
		for v := range curr {
			// float64(...) rounds the product: no fused multiply-add.
			curr[v] = (1-damping)/float64(n) + float64(damping*next[v])
		}
	}
	return curr
}

// Validate checks plan invariants: slices tile [0, n) without gaps or
// overlap and account for every in-edge.
func (p Plan) Validate(g *graph.Graph) error {
	n := g.NumVertices()
	expect := 0
	for i, sl := range p.Slices {
		if sl.Lo != expect {
			return fmt.Errorf("slicing: slice %d starts at %d, want %d", i, sl.Lo, expect)
		}
		if sl.Hi <= sl.Lo {
			return fmt.Errorf("slicing: slice %d empty", i)
		}
		expect = sl.Hi
	}
	if len(p.Slices) > 0 && expect != n {
		return fmt.Errorf("slicing: slices end at %d, want %d", expect, n)
	}
	if p.TotalEdges != g.NumEdges() {
		return fmt.Errorf("slicing: %d edges planned, graph has %d", p.TotalEdges, g.NumEdges())
	}
	return nil
}
