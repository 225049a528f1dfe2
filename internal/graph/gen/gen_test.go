package gen

import (
	"math"
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

func TestRMATBadProbabilitiesPanic(t *testing.T) {
	for _, c := range []struct {
		name    string
		a, b, c float64
	}{
		{"negative A", -0.1, 0.5, 0.3},
		{"negative B", 0.5, -0.1, 0.3},
		{"negative C", 0.5, 0.3, -0.1},
		{"NaN A", math.NaN(), 0.2, 0.2},
		{"NaN C", 0.5, 0.2, math.NaN()},
		{"sum above 1", 0.6, 0.3, 0.2},
		{"A above 1", 1.5, 0, 0},
		{"infinite B", 0.1, math.Inf(1), 0.1},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			RMAT(RMATConfig{ScaleLog2: 4, A: c.a, B: c.b, C: c.c, Seed: 1})
		})
	}
}

func TestRMATEdgeProbabilitiesAccepted(t *testing.T) {
	// All-zero means the defaults; A+B+C = 1 leaves D empty.
	for _, p := range [][3]float64{{0, 0, 0}, {0.05, 0.15, 0.8}, {1, 0, 0}} {
		g := RMAT(RMATConfig{ScaleLog2: 6, A: p[0], B: p[1], C: p[2], Seed: 3})
		if err := g.Validate(); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
	}
}

// referenceQuadrant is the four-way switch on p = r.Float64() that the
// R-MAT loop used before its integer thresholds. FuzzRMATQuadrant holds
// quadrant to it.
func referenceQuadrant(a, b, c float64, k uint64) (src, dst uint64) {
	p := float64(k) / (1 << 53)
	switch {
	case p < a:
	case p < a+b:
		dst = 1
	case p < a+b+c:
		src = 1
	default:
		src, dst = 1, 1
	}
	return src, dst
}

// FuzzRMATQuadrant: for every 53-bit draw k and valid probabilities,
// quadrant on the integer thresholds picks the reference's quadrant. The
// seeds put k one below, at and one above each threshold for the default
// and web skews, for A = B = C = 0.25 (every t·2^53 an integer, which
// ceil must not round up) and for A+B+C = 1 with fractional t·2^53.
func FuzzRMATQuadrant(f *testing.F) {
	for _, p := range [][3]float64{
		{0.57, 0.19, 0.19},
		{0.65, 0.15, 0.15},
		{0.25, 0.25, 0.25},
		{0.05, 0.15, 0.8},
	} {
		for _, t := range []float64{p[0], p[0] + p[1], p[0] + p[1] + p[2]} {
			edge := uint64(math.Ceil(t * (1 << 53)))
			for _, k := range []uint64{edge - 1, edge, edge + 1} {
				f.Add(k, p[0], p[1], p[2])
			}
		}
	}
	f.Add(uint64(0), 0.57, 0.19, 0.19)
	f.Add(uint64(1<<53-1), 0.57, 0.19, 0.19)
	f.Fuzz(func(t *testing.T, k uint64, a, b, c float64) {
		if !(a >= 0) || !(b >= 0) || !(c >= 0) || a+b+c > 1 {
			t.Skip("RMAT rejects these probabilities")
		}
		k &= 1<<53 - 1
		tA, tAB, tABC := quadrantThresholds(a, b, c)
		gotS, gotD := quadrant(tA, tAB, tABC, k)
		wantS, wantD := referenceQuadrant(a, b, c, k)
		if gotS != wantS || gotD != wantD {
			t.Fatalf("k=%d A=%v B=%v C=%v: quadrant (%d,%d), reference (%d,%d)",
				k, a, b, c, gotS, gotD, wantS, wantD)
		}
	})
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
