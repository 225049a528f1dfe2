package algorithms

import (
	"omega/internal/core"
	"omega/internal/graph"
	"omega/internal/ligra"
	"omega/internal/memsys"
	"omega/internal/pisc"
)

// PageRankResult carries the functional output of a simulated PageRank.
type PageRankResult struct {
	// Ranks is the rank per vertex after the final iteration.
	Ranks []float64
	// Iterations is the number of iterations executed.
	Iterations int
}

// PageRank runs the paper's push-style PageRank (Figure 2): every vertex
// scatters curr_pagerank/out_degree along its outgoing edges with an
// atomic floating-point add into next_pagerank, then a vertex-parallel
// pass folds damping and swaps the arrays. All vertices are active every
// iteration (Table II: no active-list), and the fold's sequential walk of
// the vtxProp array is the chunk-mapping scenario of §V.D.
func PageRank(fw *ligra.Framework, p Params) *PageRankResult {
	p = p.withDefaults()
	g := fw.Graph()
	n := g.NumVertices()
	m := fw.Machine()

	next := fw.NewProp("next_pagerank", 8, pisc.FloatValue(0))
	fw.Configure(pisc.StandardMicrocode("pagerank-update", pisc.OpFPAdd, false, false))

	// curr_pagerank is the cache-resident temporary of §V.D.
	currRegion := m.Alloc("curr_pagerank", maxi(n, 1), 8, memsys.KindNGraphData)
	curr := make([]float64, n)
	contrib := make([]float64, n)
	for v := range curr {
		curr[v] = 1.0 / float64(n)
	}

	for it := 0; it < p.Iterations; it++ {
		m.BeginIteration()
		// Precompute per-vertex contribution (vertexMap over nGraphData).
		m.ParallelFor(n, func(ctx *core.Ctx, v int) {
			ctx.Exec(4)
			ctx.Read(currRegion, v)
			d := g.OutDegree(graph.VertexID(v))
			if d > 0 {
				contrib[v] = curr[v] / float64(d)
			} else {
				contrib[v] = 0
			}
		})
		// Scatter: the Figure 2 loop. Push along out-edges with atomic
		// fp adds into next_pagerank; high-degree vertices' edge lists
		// are split across cores (Ligra's granular parallelism).
		sources := make([]uint32, n)
		for v := range sources {
			sources[v] = uint32(v)
		}
		fw.ParallelOutEdges(sources,
			func(ctx *core.Ctx, s uint32) {
				ctx.Exec(6)
				ctx.Read(currRegion, int(s))
			},
			func(ctx *core.Ctx, s uint32, j int, d uint32, w int32) {
				next.AtomicUpdate(ctx, d, pisc.OpFPAdd, pisc.FloatValue(contrib[s]))
			})
		// Fold damping and swap: sequential read of the vtxProp array
		// (the §V.D access pattern), write back to curr, reset next.
		m.ParallelFor(n, func(ctx *core.Ctx, v int) {
			ctx.Exec(6)
			sum := next.Get(ctx, uint32(v)).Float()
			// float64(...) rounds the product: no fused multiply-add.
			newRank := (1-p.Damping)/float64(n) + float64(p.Damping*sum)
			curr[v] = newRank
			ctx.Write(currRegion, v)
			next.Set(ctx, uint32(v), pisc.FloatValue(0))
		})
	}
	return &PageRankResult{Ranks: curr, Iterations: p.Iterations}
}

// ReferencePageRank computes PageRank without simulation, for test
// verification.
func ReferencePageRank(g *graph.Graph, iterations int, damping float64) []float64 {
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
		for s := 0; s < n; s++ {
			d := g.OutDegree(graph.VertexID(s))
			if d == 0 {
				continue
			}
			c := curr[s] / float64(d)
			for _, t := range g.OutNeighbors(graph.VertexID(s)) {
				next[t] += c
			}
		}
		for v := range curr {
			// float64(...) rounds the product: no fused multiply-add.
			curr[v] = (1-damping)/float64(n) + float64(damping*next[v])
		}
	}
	return curr
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
