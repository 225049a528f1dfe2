package algorithms

import (
	"math"
	"testing"
	"testing/quick"

	"omega/internal/core"
	"omega/internal/graph"
	"omega/internal/ligra"
	"omega/internal/stats"
)

// randomDirected builds a small random directed graph for property tests.
func randomDirected(seed uint64, weighted bool) *graph.Graph {
	r := stats.NewRand(seed)
	n := 10 + r.Intn(80)
	b := graph.NewBuilder(n, false)
	if weighted {
		b.SetWeighted()
	}
	m := n * (1 + r.Intn(5))
	for i := 0; i < m; i++ {
		w := int32(1)
		if weighted {
			w = int32(1 + r.Intn(9))
		}
		b.AddEdge(graph.VertexID(r.Intn(n)), graph.VertexID(r.Intn(n)), w)
	}
	b.Dedup()
	return b.Build("prop")
}

func omegaMachine(g *graph.Graph, bpv int) *core.Machine {
	_, cfg := core.ScaledPair(g.NumVertices(), bpv, 0.2)
	return core.NewMachine(cfg)
}

// TestBFSTriangleInequality: for every edge s->d with s reached, the BFS
// level of d is at most level(s)+1, and exactly one less along the parent
// edge — the defining invariants of a BFS tree, checked on random graphs.
func TestBFSTriangleInequality(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomDirected(seed, false)
		root := DefaultRoot(g)
		res := BFS(ligra.New(omegaMachine(g, 4), g), root)
		levels := res.Levels(root)
		const unset = ^uint32(0)
		for s := 0; s < g.NumVertices(); s++ {
			if levels[s] == unset {
				continue
			}
			for _, d := range g.OutNeighbors(graph.VertexID(s)) {
				if levels[d] == unset || levels[d] > levels[s]+1 {
					t.Logf("seed %d: edge %d(%d)->%d(%d) violates BFS", seed, s, levels[s], d, levels[d])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSSSPEdgeRelaxationInvariant: final distances admit no relaxable edge
// (dist[d] <= dist[s] + w for all edges), the optimality certificate of
// shortest paths.
func TestSSSPEdgeRelaxationInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomDirected(seed, true)
		root := DefaultRoot(g)
		res := SSSP(ligra.New(omegaMachine(g, 8), g), root)
		for s := 0; s < g.NumVertices(); s++ {
			if res.Dist[s] >= Infinity {
				continue
			}
			ws := g.OutWeights(graph.VertexID(s))
			for j, d := range g.OutNeighbors(graph.VertexID(s)) {
				if res.Dist[d] > res.Dist[s]+int64(ws[j]) {
					t.Logf("seed %d: edge %d->%d relaxable", seed, s, d)
					return false
				}
			}
		}
		if res.Dist[root] != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestCCLabelsAreFixpoint: every vertex's label equals the minimum label
// in its neighborhood closure — no edge connects different labels.
func TestCCLabelsAreFixpoint(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		n := 10 + r.Intn(60)
		b := graph.NewBuilder(n, true)
		for i := 0; i < n*2; i++ {
			b.AddEdge(graph.VertexID(r.Intn(n)), graph.VertexID(r.Intn(n)), 1)
		}
		b.Dedup()
		g := b.Build("cc")
		res := CC(ligra.New(omegaMachine(g, 8), g))
		for v := 0; v < n; v++ {
			for _, u := range g.OutNeighbors(graph.VertexID(v)) {
				if res.Labels[v] != res.Labels[u] {
					t.Logf("seed %d: edge %d-%d crosses labels %d/%d",
						seed, v, u, res.Labels[v], res.Labels[u])
					return false
				}
			}
			// The label is a member of the component (label <= v is not
			// required per se, but the label must be the min member: at
			// minimum, label <= v).
			if res.Labels[v] > uint32(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPageRankMassConservation: on a graph with no sink vertices, total
// rank is conserved at 1 every iteration.
func TestPageRankMassConservation(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		n := 10 + r.Intn(50)
		b := graph.NewBuilder(n, false)
		// Ring guarantees out-degree >= 1 everywhere (no sinks).
		for v := 0; v < n; v++ {
			b.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%n), 1)
		}
		for i := 0; i < n*2; i++ {
			b.AddEdge(graph.VertexID(r.Intn(n)), graph.VertexID(r.Intn(n)), 1)
		}
		b.Dedup()
		g := b.Build("pr")
		res := PageRank(ligra.New(omegaMachine(g, 8), g), Params{Iterations: 3})
		var sum float64
		for _, x := range res.Ranks {
			sum += x
		}
		return math.Abs(sum-1.0) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestTCHandshake: the total triangle count equals the handshake-counted
// reference on random undirected graphs, on both machines.
func TestTCHandshake(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		n := 8 + r.Intn(40)
		b := graph.NewBuilder(n, true)
		for i := 0; i < n*3; i++ {
			b.AddEdge(graph.VertexID(r.Intn(n)), graph.VertexID(r.Intn(n)), 1)
		}
		b.Dedup()
		g := b.Build("tc")
		return TC(ligra.New(omegaMachine(g, 8), g)).Total == ReferenceTC(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestKCCorenessInvariant: every vertex of coreness k has >= k neighbors
// of coreness >= k (the defining property of the k-core).
func TestKCCorenessInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		n := 8 + r.Intn(40)
		b := graph.NewBuilder(n, true)
		for i := 0; i < n*2; i++ {
			b.AddEdge(graph.VertexID(r.Intn(n)), graph.VertexID(r.Intn(n)), 1)
		}
		b.Dedup()
		g := b.Build("kc")
		res := KC(ligra.New(omegaMachine(g, 4), g), 0)
		for v := 0; v < n; v++ {
			k := res.Coreness[v]
			if k == 0 {
				continue
			}
			cnt := int32(0)
			for _, u := range g.OutNeighbors(graph.VertexID(v)) {
				if res.Coreness[u] >= k {
					cnt++
				}
			}
			if cnt < k {
				t.Logf("seed %d: vertex %d coreness %d but only %d strong neighbors",
					seed, v, k, cnt)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestBaselineAndOmegaAgreeFunctionally: the machine must never change the
// computation — both machines give identical BFS parents arrays given the
// same deterministic schedule inputs... identical reachability and levels.
func TestBaselineAndOmegaAgreeFunctionally(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomDirected(seed, false)
		root := DefaultRoot(g)
		bcfg, ocfg := core.ScaledPair(g.NumVertices(), 4, 0.2)
		rb := BFS(ligra.New(core.NewMachine(bcfg), g), root)
		ro := BFS(ligra.New(core.NewMachine(ocfg), g), root)
		lb := rb.Levels(root)
		lo := ro.Levels(root)
		for v := range lb {
			if lb[v] != lo[v] {
				return false
			}
		}
		return rb.Visited == ro.Visited
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Levels derives per-vertex BFS levels from the parent array (root level
// 0, unreachable ^0).
func (r *BFSResult) Levels(root uint32) []uint32 {
	const unset = ^uint32(0)
	levels := make([]uint32, len(r.Parents))
	for i := range levels {
		levels[i] = unset
	}
	var walk func(v uint32) uint32
	walk = func(v uint32) uint32 {
		if levels[v] != unset {
			return levels[v]
		}
		if v == root {
			levels[v] = 0
			return 0
		}
		p := r.Parents[v]
		if p == ^uint32(0) {
			return unset
		}
		// Mark to catch cycles (would indicate a broken tree).
		levels[v] = unset - 1
		pl := walk(p)
		if pl >= unset-1 {
			panic("bfs: parent chain broken")
		}
		levels[v] = pl + 1
		return levels[v]
	}
	for v := range r.Parents {
		if r.Parents[v] != ^uint32(0) {
			walk(uint32(v))
		}
	}
	return levels
}
