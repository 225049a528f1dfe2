package gen

import (
	"testing"

	"omega/internal/graph"
)

func TestRMATDeterministic(t *testing.T) {
	a := RMAT(DefaultRMAT(10, 42))
	b := RMAT(DefaultRMAT(10, 42))
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed should give identical shape")
	}
	for i := range a.OutEdges {
		if a.OutEdges[i] != b.OutEdges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestRMATIsPowerLaw(t *testing.T) {
	g := RMAT(DefaultRMAT(12, 7))
	if err := g.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	s := graph.ComputeDegreeStats(g)
	if !s.PowerLaw {
		t.Fatalf("R-MAT should be power-law; in-deg connectivity %.1f", s.InDegreeConnectivity)
	}
	if s.InDegreeConnectivity < 70 {
		t.Fatalf("R-MAT skew too weak: %.1f%%", s.InDegreeConnectivity)
	}
}

func TestRMATEdgeCountNearTarget(t *testing.T) {
	cfg := DefaultRMAT(12, 3)
	g := RMAT(cfg)
	want := (1 << 12) * cfg.EdgeFactor
	if g.NumEdges() < want/2 || g.NumEdges() > want {
		t.Fatalf("edges %d not near target %d", g.NumEdges(), want)
	}
}

func TestRMATWeighted(t *testing.T) {
	cfg := DefaultRMAT(8, 5)
	cfg.Weighted = true
	g := RMAT(cfg)
	if !g.Weighted() {
		t.Fatal("weighted flag lost")
	}
	for _, w := range g.Weights {
		if w < 1 || w >= 64 {
			t.Fatalf("weight %d out of [1,64)", w)
		}
	}
}

func TestRMATUndirected(t *testing.T) {
	cfg := DefaultRMAT(8, 11)
	cfg.Undirected = true
	g := RMAT(cfg)
	if err := g.Validate(); err != nil {
		t.Fatalf("validate (includes symmetry): %v", err)
	}
}

func TestRMATBadScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RMAT(RMATConfig{ScaleLog2: 0})
}

func TestBarabasiAlbertPowerLaw(t *testing.T) {
	g := BarabasiAlbert(BAConfig{NumVertices: 4000, EdgesPerVertex: 8, Seed: 1})
	if err := g.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	s := graph.ComputeDegreeStats(g)
	if !s.PowerLaw {
		t.Fatalf("BA should be power-law; in-deg connectivity %.1f", s.InDegreeConnectivity)
	}
}

func TestBarabasiAlbertDeterministic(t *testing.T) {
	a := BarabasiAlbert(BAConfig{NumVertices: 500, EdgesPerVertex: 4, Seed: 9})
	b := BarabasiAlbert(BAConfig{NumVertices: 500, EdgesPerVertex: 4, Seed: 9})
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("nondeterministic BA")
	}
}

func TestErdosRenyiNotPowerLaw(t *testing.T) {
	g := ErdosRenyi(ERConfig{NumVertices: 4000, NumEdges: 40000, Seed: 2})
	if err := g.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	s := graph.ComputeDegreeStats(g)
	if s.PowerLaw {
		t.Fatalf("ER should not be power-law; got %.1f%%", s.InDegreeConnectivity)
	}
}

func TestRoadGridNotPowerLaw(t *testing.T) {
	g := RoadGrid(RoadConfig{Side: 64, ExtraFraction: 0.1, Seed: 4})
	if err := g.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	s := graph.ComputeDegreeStats(g)
	if s.PowerLaw {
		t.Fatalf("road grid should not be power-law; got %.1f%%", s.InDegreeConnectivity)
	}
	// Table I reports ~29% for road networks; accept a loose band.
	if s.InDegreeConnectivity < 20 || s.InDegreeConnectivity > 45 {
		t.Fatalf("road connectivity %.1f%% outside road-like band", s.InDegreeConnectivity)
	}
	if s.MaxInDegree > 16 {
		t.Fatalf("road max degree %d too high", s.MaxInDegree)
	}
}

func TestRoadGridUndirectedSymmetric(t *testing.T) {
	g := RoadGrid(RoadConfig{Side: 16, Seed: 8})
	if !g.Undirected {
		t.Fatal("road grids are undirected")
	}
}

func TestRoadGridWeighted(t *testing.T) {
	g := RoadGrid(RoadConfig{Side: 16, Seed: 8, Weighted: true})
	if !g.Weighted() {
		t.Fatal("weighted road lost weights")
	}
	for _, w := range g.Weights {
		if w < 1 {
			t.Fatalf("non-positive road weight %d", w)
		}
	}
}

func TestWattsStrogatzNotPowerLaw(t *testing.T) {
	g := WattsStrogatz(WSConfig{NumVertices: 4000, K: 8, Beta: 0.1, Seed: 5})
	if err := g.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	s := graph.ComputeDegreeStats(g)
	if s.PowerLaw {
		t.Fatalf("small-world graphs are not power-law: %.1f%%", s.InDegreeConnectivity)
	}
	if !g.Undirected {
		t.Fatal("WS should be undirected")
	}
}

func TestWattsStrogatzDeterministic(t *testing.T) {
	a := WattsStrogatz(WSConfig{NumVertices: 500, K: 6, Beta: 0.2, Seed: 9})
	b := WattsStrogatz(WSConfig{NumVertices: 500, K: 6, Beta: 0.2, Seed: 9})
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("nondeterministic WS")
	}
}

func TestWattsStrogatzBetaExtremes(t *testing.T) {
	lattice := WattsStrogatz(WSConfig{NumVertices: 300, K: 4, Beta: 0, Seed: 1})
	if graph.ComputeDegreeStats(lattice).MaxInDegree > 8 {
		t.Fatal("pure lattice degrees should be tight")
	}
	random := WattsStrogatz(WSConfig{NumVertices: 300, K: 4, Beta: 1, Seed: 1, Weighted: true})
	if err := random.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestGeneratorsProduceDistinctSeededOutputs(t *testing.T) {
	a := RMAT(DefaultRMAT(10, 1))
	b := RMAT(DefaultRMAT(10, 2))
	if a.NumEdges() == b.NumEdges() {
		// Edge counts can rarely collide; compare content.
		same := true
		for i := range a.OutEdges {
			if a.OutEdges[i] != b.OutEdges[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}
