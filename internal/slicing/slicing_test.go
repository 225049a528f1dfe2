package slicing

import (
	"fmt"
	"math"
	"testing"

	"omega/internal/algorithms"
	"omega/internal/graph"
	"omega/internal/graph/gen"
	"omega/internal/graph/reorder"
)

func TestPlanTilesAllVertices(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(11, 9))
	g = reorder.Apply(g, reorder.Compute(g, reorder.InDegree))
	for _, mode := range []Mode{Plain, PowerLawAware} {
		p := BuildPlan(g, 100, 0.20, mode)
		if err := p.Validate(g); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
	}
}

func TestPowerLawAwareNeedsFewerSlices(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(12, 9))
	g = reorder.Apply(g, reorder.Compute(g, reorder.InDegree))
	capacity := g.NumVertices() / 25
	plain := BuildPlan(g, capacity, 0.20, Plain)
	aware := BuildPlan(g, capacity, 0.20, PowerLawAware)
	red := float64(plain.NumSlices()) / float64(aware.NumSlices())
	if red < 4 || red > 6 {
		t.Fatalf("power-law slicing should cut slices ~5x (paper §VII.3): got %.1fx (%d -> %d)",
			red, plain.NumSlices(), aware.NumSlices())
	}
}

func TestSlicedPageRankMatchesUnsliced(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 13))
	g = reorder.Apply(g, reorder.Compute(g, reorder.InDegree))
	want := algorithms.ReferencePageRank(g, 3, 0.85)
	for _, mode := range []Mode{Plain, PowerLawAware} {
		plan := BuildPlan(g, g.NumVertices()/10, 0.20, mode)
		got := PageRankSliced(g, plan, 3, 0.85)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-12 {
				t.Fatalf("%v: rank[%d] = %v, want %v", mode, v, got[v], want[v])
			}
		}
	}
}

func TestSingleSliceWhenEverythingFits(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 5))
	p := BuildPlan(g, g.NumVertices(), 0.20, Plain)
	if p.NumSlices() != 1 {
		t.Fatalf("full capacity should need one slice, got %d", p.NumSlices())
	}
}

func TestTinyCapacity(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 5))
	p := BuildPlan(g, 1, 0.20, Plain)
	if p.NumSlices() != g.NumVertices() {
		t.Fatalf("capacity 1 should give one slice per vertex, got %d", p.NumSlices())
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestEdgesAccounted(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 3))
	p := BuildPlan(g, 97, 0.20, PowerLawAware)
	sum := 0
	for _, sl := range p.Slices {
		sum += sl.Edges
	}
	if sum != g.NumEdges() || p.TotalEdges != g.NumEdges() {
		t.Fatalf("edges %d+%d, want %d", sum, p.TotalEdges, g.NumEdges())
	}
}

func TestModeStrings(t *testing.T) {
	if Plain.String() != "plain" || PowerLawAware.String() != "power-law-aware" {
		t.Fatal("mode names wrong")
	}
	if Mode(7).String() == "" {
		t.Fatal("unknown mode should render")
	}
}

func TestDefaultsOnBadInputs(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 5))
	p := BuildPlan(g, 0, -1, Plain) // capacity and fraction clamped
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
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
