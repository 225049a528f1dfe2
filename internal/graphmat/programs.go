package graphmat

import (
	"omega/internal/core"
	"omega/internal/graph"
	"omega/internal/pisc"
)

// RunPageRank executes iters PageRank iterations GraphMat-style and
// returns the ranks. The property stores rank/out-degree (the "scaled
// rank" GraphMat sends as the message), so SendMessage is the identity
// and Apply folds damping and rescales.
func RunPageRank(m *core.Machine, g *graph.Graph, iters int, damping float64) []float64 {
	n := g.NumVertices()
	vcount := float64(n)
	rank := make([]float64, n)
	degs := make([]float64, n)
	for v := 0; v < n; v++ {
		rank[v] = 1.0 / vcount
		degs[v] = float64(g.OutDegree(graph.VertexID(v)))
	}
	prog := VertexProgram{
		Name:     "gm-pagerank",
		ReduceOp: pisc.OpFPAdd,
		Identity: pisc.FloatValue(0),
		ApplyAll: true,
		InitProp: func(v uint32) pisc.Value {
			if degs[v] == 0 {
				return pisc.FloatValue(0)
			}
			return pisc.FloatValue(rank[v] / degs[v])
		},
		SendMessage: func(src pisc.Value, w int32) (pisc.Value, bool) {
			return src, true
		},
		Apply: func(v uint32, old, reduced pisc.Value) (pisc.Value, bool) {
			// float64(...) rounds the product: no fused multiply-add.
			newRank := (1-damping)/vcount + float64(damping*reduced.Float())
			rank[v] = newRank
			if degs[v] == 0 {
				return pisc.FloatValue(0), true
			}
			return pisc.FloatValue(newRank / degs[v]), true
		},
	}
	e := New(m, g, prog)
	e.Run(nil, iters)
	return rank
}
