package graph_test

import (
	"math/rand/v2"
	"testing"

	"omega/internal/graph"
	"omega/internal/graph/gen"
)

var benchGraph *graph.Graph

// BenchmarkBuild times CSR construction alone, from the arcs of an R-MAT
// scale-14 graph in shuffled order; filling the builder is untimed.
func BenchmarkBuild(b *testing.B) {
	for _, weighted := range []bool{false, true} {
		name := "unweighted"
		if weighted {
			name = "weighted"
		}
		b.Run(name, func(b *testing.B) {
			cfg := gen.DefaultRMAT(14, 42)
			cfg.Weighted = weighted
			g := gen.RMAT(cfg)
			var edges []graph.Edge
			for v := 0; v < g.NumVertices(); v++ {
				ws := g.OutWeights(graph.VertexID(v))
				for i, u := range g.OutNeighbors(graph.VertexID(v)) {
					e := graph.Edge{Src: graph.VertexID(v), Dst: u}
					if ws != nil {
						e.Weight = ws[i]
					}
					edges = append(edges, e)
				}
			}
			rand.New(rand.NewPCG(1, 2)).Shuffle(len(edges), func(i, j int) {
				edges[i], edges[j] = edges[j], edges[i]
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bld := graph.NewBuilder(g.NumVertices(), false)
				if weighted {
					bld.SetWeighted()
				}
				for _, e := range edges {
					bld.AddEdge(e.Src, e.Dst, e.Weight)
				}
				b.StartTimer()
				benchGraph = bld.Build("bench")
			}
		})
	}
}

// BenchmarkRMAT times R-MAT generation at scale 14, seed 42, for each
// variant perfbench's cell workloads build: the draws, the builder fill,
// Dedup and Build.
func BenchmarkRMAT(b *testing.B) {
	for _, v := range []struct {
		name                 string
		undirected, weighted bool
	}{
		{"directed", false, false},
		{"directed-weighted", false, true},
		{"undirected", true, false},
	} {
		b.Run(v.name, func(b *testing.B) {
			cfg := gen.DefaultRMAT(14, 42)
			cfg.Undirected, cfg.Weighted = v.undirected, v.weighted
			for i := 0; i < b.N; i++ {
				benchGraph = gen.RMAT(cfg)
			}
		})
	}
}
