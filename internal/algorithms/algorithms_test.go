package algorithms

import (
	"math"
	"testing"

	"omega/internal/core"
	"omega/internal/graph"
	"omega/internal/graph/gen"
	"omega/internal/graph/reorder"
	"omega/internal/ligra"
)

// testMachines returns a scaled (baseline, omega) machine pair for g.
func testMachines(g *graph.Graph, bytesPerVertex int) (*core.Machine, *core.Machine) {
	b, o := core.ScaledPair(g.NumVertices(), bytesPerVertex, 0.20)
	return core.NewMachine(b), core.NewMachine(o)
}

// directedTestGraph is an in-degree-reordered RMAT graph.
func directedTestGraph(tb testing.TB, scale int) *graph.Graph {
	tb.Helper()
	g := gen.RMAT(gen.DefaultRMAT(scale, 11))
	return reorder.Apply(g, reorder.Compute(g, reorder.InDegree))
}

func undirectedTestGraph(tb testing.TB, scale int) *graph.Graph {
	tb.Helper()
	cfg := gen.DefaultRMAT(scale, 12)
	cfg.Undirected = true
	g := gen.RMAT(cfg)
	return reorder.Apply(g, reorder.Compute(g, reorder.InDegree))
}

func weightedTestGraph(tb testing.TB, scale int) *graph.Graph {
	tb.Helper()
	cfg := gen.DefaultRMAT(scale, 13)
	cfg.Weighted = true
	g := gen.RMAT(cfg)
	return reorder.Apply(g, reorder.Compute(g, reorder.InDegree))
}

func TestPageRankMatchesReferenceOnBothMachines(t *testing.T) {
	g := directedTestGraph(t, 9)
	want := ReferencePageRank(g, 2, 0.85)
	base, om := testMachines(g, 8)
	for _, m := range []*core.Machine{base, om} {
		fw := ligra.New(m, g)
		res := PageRank(fw, Params{Iterations: 2, Damping: 0.85})
		if res.Iterations != 2 {
			t.Fatalf("%s: iterations = %d", m.Config().Name, res.Iterations)
		}
		for v := range want {
			if math.Abs(res.Ranks[v]-want[v]) > 1e-9 {
				t.Fatalf("%s: rank[%d] = %v, want %v", m.Config().Name, v, res.Ranks[v], want[v])
			}
		}
	}
}

func TestPageRankRanksSumToOne(t *testing.T) {
	g := directedTestGraph(t, 8)
	// With damping redistributed uniformly, total rank stays 1 only when
	// every vertex has out-degree > 0; RMAT has sinks, so just check the
	// ranks are positive and finite.
	_, om := testMachines(g, 8)
	fw := ligra.New(om, g)
	res := PageRank(fw, Params{Iterations: 1})
	for v, r := range res.Ranks {
		if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			t.Fatalf("rank[%d] = %v", v, r)
		}
	}
}

func TestBFSMatchesReferenceOnBothMachines(t *testing.T) {
	g := directedTestGraph(t, 9)
	root := DefaultRoot(g)
	want := ReferenceBFS(g, root)
	base, om := testMachines(g, 4)
	for _, m := range []*core.Machine{base, om} {
		fw := ligra.New(m, g)
		res := BFS(fw, root)
		levels := res.Levels(root)
		for v := range want {
			if want[v] == ^uint32(0) {
				if res.Parents[v] != ^uint32(0) {
					t.Fatalf("%s: vertex %d should be unreachable", m.Config().Name, v)
				}
				continue
			}
			if levels[v] != want[v] {
				t.Fatalf("%s: level[%d] = %d, want %d", m.Config().Name, v, levels[v], want[v])
			}
			if uint32(v) != root {
				// Parent must be a real in-neighbor at the previous level.
				p := res.Parents[v]
				found := false
				for _, u := range g.InNeighbors(graph.VertexID(v)) {
					if u == p {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("%s: parent[%d]=%d is not an in-neighbor", m.Config().Name, v, p)
				}
			}
		}
	}
}

func TestBFSVisitedCount(t *testing.T) {
	g := directedTestGraph(t, 8)
	root := DefaultRoot(g)
	want := 0
	for _, d := range ReferenceBFS(g, root) {
		if d != ^uint32(0) {
			want++
		}
	}
	_, om := testMachines(g, 4)
	res := BFS(ligra.New(om, g), root)
	if res.Visited != want {
		t.Fatalf("visited %d, want %d", res.Visited, want)
	}
}

func TestSSSPMatchesReferenceWeighted(t *testing.T) {
	g := weightedTestGraph(t, 8)
	root := DefaultRoot(g)
	want := ReferenceSSSP(g, root)
	base, om := testMachines(g, 8)
	for _, m := range []*core.Machine{base, om} {
		fw := ligra.New(m, g)
		res := SSSP(fw, root)
		for v := range want {
			if res.Dist[v] != want[v] {
				t.Fatalf("%s: dist[%d] = %d, want %d", m.Config().Name, v, res.Dist[v], want[v])
			}
		}
	}
}

func TestSSSPUnweightedEqualsBFS(t *testing.T) {
	g := directedTestGraph(t, 8)
	root := DefaultRoot(g)
	bfs := ReferenceBFS(g, root)
	_, om := testMachines(g, 8)
	res := SSSP(ligra.New(om, g), root)
	for v := range bfs {
		if bfs[v] == ^uint32(0) {
			if res.Dist[v] != Infinity {
				t.Fatalf("dist[%d] should be Infinity", v)
			}
		} else if res.Dist[v] != int64(bfs[v]) {
			t.Fatalf("dist[%d] = %d, want %d", v, res.Dist[v], bfs[v])
		}
	}
}

func TestBCMatchesReference(t *testing.T) {
	g := directedTestGraph(t, 8)
	root := DefaultRoot(g)
	wantPaths, wantLevels := ReferenceBC(g, root)
	base, om := testMachines(g, 8)
	for _, m := range []*core.Machine{base, om} {
		fw := ligra.New(m, g)
		res := BC(fw, root)
		for v := range wantLevels {
			if res.Levels[v] != wantLevels[v] {
				t.Fatalf("%s: level[%d] = %d, want %d", m.Config().Name, v, res.Levels[v], wantLevels[v])
			}
			if diff := math.Abs(res.NumPaths[v] - wantPaths[v]); diff > 1e-6*(1+wantPaths[v]) {
				t.Fatalf("%s: paths[%d] = %v, want %v", m.Config().Name, v, res.NumPaths[v], wantPaths[v])
			}
		}
	}
}

func TestRadiiMatchesReference(t *testing.T) {
	g := directedTestGraph(t, 8)
	base, om := testMachines(g, 12)
	for _, m := range []*core.Machine{base, om} {
		fw := ligra.New(m, g)
		res := Radii(fw, 16, 777)
		want := ReferenceRadii(g, res.Sources)
		for v := range want {
			if res.Radii[v] != want[v] {
				t.Fatalf("%s: radii[%d] = %d, want %d", m.Config().Name, v, res.Radii[v], want[v])
			}
		}
	}
}

func TestCCMatchesReference(t *testing.T) {
	g := undirectedTestGraph(t, 8)
	want := ReferenceCC(g)
	base, om := testMachines(g, 8)
	for _, m := range []*core.Machine{base, om} {
		fw := ligra.New(m, g)
		res := CC(fw)
		for v := range want {
			if res.Labels[v] != want[v] {
				t.Fatalf("%s: label[%d] = %d, want %d", m.Config().Name, v, res.Labels[v], want[v])
			}
		}
	}
}

func TestCCCountsComponentsOnDisconnectedGraph(t *testing.T) {
	// Two disjoint triangles.
	b := graph.NewBuilder(6, true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 0, 1)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	b.AddEdge(5, 3, 1)
	g := b.Build("two-triangles")
	_, om := testMachines(g, 8)
	res := CC(ligra.New(om, g))
	if res.NumComponents != 2 {
		t.Fatalf("components = %d, want 2", res.NumComponents)
	}
}

func TestTCMatchesReference(t *testing.T) {
	g := undirectedTestGraph(t, 8)
	want := ReferenceTC(g)
	base, om := testMachines(g, 8)
	for _, m := range []*core.Machine{base, om} {
		fw := ligra.New(m, g)
		res := TC(fw)
		if res.Total != want {
			t.Fatalf("%s: triangles = %d, want %d", m.Config().Name, res.Total, want)
		}
	}
}

func TestTCOnKnownGraph(t *testing.T) {
	// K4 has 4 triangles.
	b := graph.NewBuilder(4, true)
	for i := uint32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(i, j, 1)
		}
	}
	g := b.Build("k4")
	if ReferenceTC(g) != 4 {
		t.Fatalf("reference K4 = %d", ReferenceTC(g))
	}
	_, om := testMachines(g, 8)
	if res := TC(ligra.New(om, g)); res.Total != 4 {
		t.Fatalf("simulated K4 = %d", res.Total)
	}
}

func TestKCMatchesReference(t *testing.T) {
	g := undirectedTestGraph(t, 7)
	want := ReferenceKC(g)
	base, om := testMachines(g, 4)
	for _, m := range []*core.Machine{base, om} {
		fw := ligra.New(m, g)
		res := KC(fw, 0)
		for v := range want {
			if res.Coreness[v] != want[v] {
				t.Fatalf("%s: coreness[%d] = %d, want %d", m.Config().Name, v, res.Coreness[v], want[v])
			}
		}
	}
}

func TestKCOnKnownGraph(t *testing.T) {
	// A triangle with a pendant vertex: triangle members have coreness 2,
	// the pendant has coreness 1.
	b := graph.NewBuilder(4, true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 0, 1)
	b.AddEdge(2, 3, 1)
	g := b.Build("triangle+tail")
	_, om := testMachines(g, 4)
	res := KC(ligra.New(om, g), 0)
	want := []int32{2, 2, 2, 1}
	for v := range want {
		if res.Coreness[v] != want[v] {
			t.Fatalf("coreness[%d] = %d, want %d", v, res.Coreness[v], want[v])
		}
	}
	if res.MaxCore != 2 {
		t.Fatalf("max core = %d", res.MaxCore)
	}
}

func TestAllSpecsRunnable(t *testing.T) {
	dir := directedTestGraph(t, 7)
	undirCfg := gen.DefaultRMAT(7, 5)
	undirCfg.Undirected = true
	undir := reorder.Apply(gen.RMAT(undirCfg), reorder.Compute(gen.RMAT(undirCfg), reorder.InDegree))
	for _, spec := range All() {
		g := dir
		if spec.NeedsUndirected {
			g = undir
		}
		_, om := testMachines(g, spec.VtxPropBytes)
		fw := ligra.New(om, g)
		st := spec.Run(fw)
		if st.Cycles == 0 {
			t.Fatalf("%s: zero cycles", spec.Name)
		}
		if st.TotalAccesses() == 0 {
			t.Fatalf("%s: no accesses", spec.Name)
		}
	}
}

func TestSpecMetadataMatchesTableII(t *testing.T) {
	specs := All()
	if len(specs) != 8 {
		t.Fatalf("want 8 algorithms, got %d", len(specs))
	}
	byName := map[string]Spec{}
	for _, s := range specs {
		byName[s.Name] = s
	}
	if byName["PageRank"].VtxPropBytes != 8 || byName["PageRank"].ActiveList {
		t.Fatal("PageRank Table II metadata wrong")
	}
	if byName["BFS"].VtxPropBytes != 4 || !byName["BFS"].ActiveList {
		t.Fatal("BFS Table II metadata wrong")
	}
	if byName["Radii"].VtxPropBytes != 12 || byName["Radii"].NumProps != 3 {
		t.Fatal("Radii Table II metadata wrong")
	}
	if byName["KC"].VtxPropBytes != 4 {
		t.Fatal("KC Table II metadata wrong")
	}
	if !byName["SSSP"].ReadsSrc || byName["BFS"].ReadsSrc {
		t.Fatal("ReadsSrc flags wrong")
	}
	// SSSP is the one algorithm that reads edge weights; every dataset
	// choice keys on this field.
	for _, s := range All() {
		if s.NeedsWeights != (s.Name == "SSSP") {
			t.Fatalf("%s: NeedsWeights = %v", s.Name, s.NeedsWeights)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("PageRank"); !ok {
		t.Fatal("PageRank should resolve")
	}
	if _, ok := ByName("NoSuch"); ok {
		t.Fatal("unknown algorithm should not resolve")
	}
}

func TestDefaultRootSkipsIsolated(t *testing.T) {
	b := graph.NewBuilder(3, false)
	b.AddEdge(1, 2, 1)
	g := b.Build("iso")
	if DefaultRoot(g) != 1 {
		t.Fatalf("root = %d, want 1", DefaultRoot(g))
	}
}
