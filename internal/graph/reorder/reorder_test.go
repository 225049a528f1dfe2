package reorder

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"

	"omega/internal/graph"
	"omega/internal/graph/gen"
	"omega/internal/stats"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := gen.RMAT(gen.DefaultRMAT(9, 13))
	if err := g.Validate(); err != nil {
		t.Fatalf("generator produced invalid graph: %v", err)
	}
	return g
}

func TestIdentity(t *testing.T) {
	g := testGraph(t)
	p := Compute(g, Identity)
	for v, nw := range p {
		if int(nw) != v {
			t.Fatalf("identity moved %d -> %d", v, nw)
		}
	}
}

func allMethods() []Method {
	return []Method{Identity, InDegree, OutDegree, SlashBurn}
}

func TestAllMethodsProduceValidPermutations(t *testing.T) {
	g := testGraph(t)
	for _, m := range allMethods() {
		p := Compute(g, m)
		if len(p) != g.NumVertices() {
			t.Fatalf("%v: wrong size", m)
		}
		if !p.Valid() {
			t.Fatalf("%v: not a bijection", m)
		}
	}
}

func TestInDegreeOrderingMonotone(t *testing.T) {
	g := testGraph(t)
	p := Compute(g, InDegree)
	inv := p.Inverse()
	for rank := 1; rank < len(inv); rank++ {
		if g.InDegree(inv[rank-1]) < g.InDegree(inv[rank]) {
			t.Fatalf("in-degree not descending at rank %d", rank)
		}
	}
}

func TestOutDegreeOrderingMonotone(t *testing.T) {
	g := testGraph(t)
	p := Compute(g, OutDegree)
	inv := p.Inverse()
	for rank := 1; rank < len(inv); rank++ {
		if g.OutDegree(inv[rank-1]) < g.OutDegree(inv[rank]) {
			t.Fatalf("out-degree not descending at rank %d", rank)
		}
	}
}

func TestApplyPreservesStructure(t *testing.T) {
	g := testGraph(t)
	p := Compute(g, InDegree)
	ng := Apply(g, p)
	if err := ng.Validate(); err != nil {
		t.Fatalf("reordered graph invalid: %v", err)
	}
	if ng.NumVertices() != g.NumVertices() || ng.NumEdges() != g.NumEdges() {
		t.Fatalf("shape changed: %d/%d vs %d/%d",
			ng.NumVertices(), ng.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	// Every original edge must exist under the new labels.
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.OutNeighbors(graph.VertexID(v)) {
			found := false
			for _, nu := range ng.OutNeighbors(p[v]) {
				if nu == p[u] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d->%d lost after reorder", v, u)
			}
		}
	}
}

func TestApplyUndirectedPreservesStructure(t *testing.T) {
	g := gen.RoadGrid(gen.RoadConfig{Side: 12, Seed: 5})
	p := Compute(g, InDegree)
	ng := Apply(g, p)
	if err := ng.Validate(); err != nil {
		t.Fatalf("reordered road graph invalid: %v", err)
	}
	if ng.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed %d -> %d", g.NumEdges(), ng.NumEdges())
	}
	if !ng.Undirected {
		t.Fatal("undirected flag lost")
	}
}

func TestApplyWeightedPreservesWeights(t *testing.T) {
	b := graph.NewBuilder(3, false)
	b.SetWeighted()
	b.AddEdge(0, 1, 11)
	b.AddEdge(1, 2, 22)
	g := b.Build("w")
	p := Permutation{2, 1, 0} // reverse
	ng := Apply(g, p)
	ws := ng.OutWeights(2) // old vertex 0
	if len(ws) != 1 || ws[0] != 11 {
		t.Fatalf("weight lost: %v", ws)
	}
}

func TestInDegreeReorderImprovesTopLocality(t *testing.T) {
	// After in-degree reordering, the top 20% of vertex IDs must hold at
	// least as much in-degree mass as any other 20% — i.e. vertex 0 is
	// the most connected (Figure 6 of the paper).
	g := testGraph(t)
	ng := Apply(g, Compute(g, InDegree))
	if ng.InDegree(0) < ng.InDegree(graph.VertexID(ng.NumVertices()-1)) {
		t.Fatal("vertex 0 should have the highest in-degree after reordering")
	}
	for v := 1; v < ng.NumVertices(); v++ {
		if ng.InDegree(graph.VertexID(v)) > ng.InDegree(0) {
			t.Fatalf("vertex %d has higher in-degree than vertex 0", v)
		}
	}
}

func TestSlashBurnPutsHubFirst(t *testing.T) {
	// Star graph: the hub must end up at the front.
	n := 50
	var edges []graph.Edge
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: 0, Weight: 1})
	}
	g := graph.FromEdges(n, false, edges, "star")
	p := Compute(g, SlashBurn)
	if p[0] != 0 {
		t.Fatalf("hub should get new ID 0, got %d", p[0])
	}
}

func TestPermutationInverseRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		n := 1 + r.Intn(100)
		perm := r.Perm(n)
		p := make(Permutation, n)
		for i, v := range perm {
			p[i] = graph.VertexID(v)
		}
		inv := p.Inverse()
		for old, nw := range p {
			if inv[nw] != graph.VertexID(old) {
				return false
			}
		}
		return p.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPermutationValidRejectsDuplicates(t *testing.T) {
	p := Permutation{0, 0, 1}
	if p.Valid() {
		t.Fatal("duplicate mapping should be invalid")
	}
	p = Permutation{0, 5, 1}
	if p.Valid() {
		t.Fatal("out-of-range mapping should be invalid")
	}
}

func TestMethodStrings(t *testing.T) {
	for _, m := range allMethods() {
		if m.String() == "unknown" || m.String() == "" {
			t.Fatalf("method %d has no name", m)
		}
	}
	if Method(99).String() != "unknown" {
		t.Fatal("unknown method should say so")
	}
}

// referenceByDegree is the stable comparator sort byDegree replaced:
// descending degree, ties in ascending old ID. FuzzByDegree holds the
// counting sort to it.
func referenceByDegree(deg []uint64) Permutation {
	order := make([]graph.VertexID, len(deg))
	for v := range order {
		order[v] = graph.VertexID(v)
	}
	slices.SortStableFunc(order, func(x, y graph.VertexID) int {
		return cmp.Compare(deg[y], deg[x])
	})
	p := make(Permutation, len(deg))
	for rank, old := range order {
		p[old] = graph.VertexID(rank)
	}
	return p
}

// FuzzByDegree: for any degree vector, byDegree over the matching CSR
// offsets returns the reference's permutation. Each byte is one vertex:
// mostly degrees 0-5, so ties and zeros dominate, with a byte of 250 or
// more giving a hub of degree 4×byte.
func FuzzByDegree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{3, 1, 3, 0, 1, 3, 0})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{255, 2, 250, 2, 0, 255, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		deg := make([]uint64, len(data))
		offsets := make([]uint64, len(data)+1)
		for v, c := range data {
			deg[v] = uint64(c % 6)
			if c >= 250 {
				deg[v] = 4 * uint64(c)
			}
			offsets[v+1] = offsets[v] + deg[v]
		}
		got, want := byDegree(offsets), referenceByDegree(deg)
		if !slices.Equal(got, want) {
			t.Fatalf("degrees %v: byDegree %v, reference %v", deg, got, want)
		}
	})
}

var benchGraph *graph.Graph

// BenchmarkApply times the in-degree relabeling of an R-MAT scale-14
// graph, the step every reordered dataset build ends with. The
// compute+apply cases also rank the vertices first, as a reordered
// dataset build does, on each R-MAT variant perfbench's cell workloads
// build.
func BenchmarkApply(b *testing.B) {
	for _, weighted := range []bool{false, true} {
		name := "unweighted"
		if weighted {
			name = "weighted"
		}
		b.Run(name, func(b *testing.B) {
			cfg := gen.DefaultRMAT(14, 42)
			cfg.Weighted = weighted
			g := gen.RMAT(cfg)
			p := Compute(g, InDegree)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchGraph = Apply(g, p)
			}
		})
	}
	for _, v := range []struct {
		name                 string
		undirected, weighted bool
	}{
		{"directed", false, false},
		{"directed-weighted", false, true},
		{"undirected", true, false},
	} {
		b.Run("compute+apply/"+v.name, func(b *testing.B) {
			cfg := gen.DefaultRMAT(14, 42)
			cfg.Undirected, cfg.Weighted = v.undirected, v.weighted
			g := gen.RMAT(cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchGraph = Apply(g, Compute(g, InDegree))
			}
		})
	}
}

// Inverse returns the old-ID-for-new-ID mapping.
func (p Permutation) Inverse() Permutation {
	inv := make(Permutation, len(p))
	for old, nw := range p {
		inv[nw] = graph.VertexID(old)
	}
	return inv
}

// Valid reports whether p is a bijection on [0, len(p)).
func (p Permutation) Valid() bool {
	seen := make([]bool, len(p))
	for _, nw := range p {
		if int(nw) >= len(p) || seen[nw] {
			return false
		}
		seen[nw] = true
	}
	return true
}
