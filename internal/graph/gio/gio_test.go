package gio

import (
	"bytes"
	"strings"
	"testing"

	"omega/internal/graph"
	"omega/internal/graph/gen"
)

func TestLoadEdgeListBasic(t *testing.T) {
	src := `# comment line
% another comment
0 1
0 2
1 2

2 0
`
	g, err := LoadEdgeList(strings.NewReader(src), false, "t")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 4 {
		t.Fatalf("shape %d/%d", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestLoadEdgeListDensifiesSparseIDs(t *testing.T) {
	src := "1000 2000\n2000 30\n"
	g, err := LoadEdgeList(strings.NewReader(src), false, "sparse")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if g.NumVertices() != 3 {
		t.Fatalf("want 3 densified vertices, got %d", g.NumVertices())
	}
}

func TestLoadEdgeListWeighted(t *testing.T) {
	src := "0 1 5\n1 2 9\n"
	g, err := LoadEdgeList(strings.NewReader(src), false, "w")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !g.Weighted() {
		t.Fatal("weights not detected")
	}
	if g.OutWeights(0)[0] != 5 {
		t.Fatalf("weight = %d", g.OutWeights(0)[0])
	}
}

func TestLoadEdgeListUndirected(t *testing.T) {
	src := "0 1\n1 2\n"
	g, err := LoadEdgeList(strings.NewReader(src), true, "u")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("undirected should double arcs: %d", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestLoadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",       // too few fields
		"x 1\n",     // bad src
		"0 y\n",     // bad dst
		"0 1 zzz\n", // bad weight
	}
	for _, src := range cases {
		if _, err := LoadEdgeList(strings.NewReader(src), false, "bad"); err == nil {
			t.Fatalf("input %q should fail", src)
		}
	}
}

func TestLoadEdgeListWithReportBudget(t *testing.T) {
	// Two corrupt lines among four good ones.
	src := "0 1\nbroken\n1 2\n0 y\n2 0\n0 3\n"

	// Strict (budget 0): first corruption fails the load.
	if _, _, err := LoadEdgeListWithReport(strings.NewReader(src), "strict", EdgeListOptions{}); err == nil {
		t.Fatal("strict load should fail on the first bad line")
	}

	// Budget 1: the second corruption exhausts it.
	_, rep, err := LoadEdgeListWithReport(strings.NewReader(src), "tight", EdgeListOptions{MaxBadLines: 1})
	if err == nil {
		t.Fatal("budget 1 should be exhausted by the second bad line")
	}
	if !strings.Contains(err.Error(), "budget") {
		t.Fatalf("error should mention the budget: %v", err)
	}
	_ = rep

	// Budget 2: both skipped, load succeeds, report counts them.
	g, rep, err := LoadEdgeListWithReport(strings.NewReader(src), "lenient", EdgeListOptions{MaxBadLines: 2})
	if err != nil {
		t.Fatalf("lenient load: %v", err)
	}
	if rep.BadLines != 2 || rep.Lines != 6 {
		t.Fatalf("report = %+v, want 2 bad of 6", rep)
	}
	if rep.FirstBad == "" || !strings.Contains(rep.FirstBad, "line 2") {
		t.Fatalf("first bad line not located: %q", rep.FirstBad)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("good edges lost: %d, want 4", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestLoadEdgeListWithReportCleanInput(t *testing.T) {
	g, rep, err := LoadEdgeListWithReport(strings.NewReader("0 1\n1 2\n"), "clean",
		EdgeListOptions{MaxBadLines: 5})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if rep.BadLines != 0 || rep.FirstBad != "" || rep.Lines != 2 {
		t.Fatalf("clean input misreported: %+v", rep)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges %d", g.NumEdges())
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 21))
	var buf bytes.Buffer
	if err := StoreBinary(&buf, g); err != nil {
		t.Fatalf("store: %v", err)
	}
	g2, err := LoadBinary(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if g2.Name != g.Name || g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("round-trip changed shape or name")
	}
	for i := range g.OutEdges {
		if g.OutEdges[i] != g2.OutEdges[i] {
			t.Fatalf("out edge %d differs", i)
		}
	}
	for i := range g.InEdges {
		if g.InEdges[i] != g2.InEdges[i] {
			t.Fatalf("in edge %d differs", i)
		}
	}
}

func TestBinaryRoundTripWeightedUndirected(t *testing.T) {
	cfg := gen.DefaultRMAT(8, 22)
	cfg.Weighted = true
	cfg.Undirected = true
	g := gen.RMAT(cfg)
	var buf bytes.Buffer
	if err := StoreBinary(&buf, g); err != nil {
		t.Fatalf("store: %v", err)
	}
	g2, err := LoadBinary(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !g2.Undirected || !g2.Weighted() {
		t.Fatal("flags lost")
	}
	for i := range g.Weights {
		if g.Weights[i] != g2.Weights[i] {
			t.Fatalf("weight %d differs", i)
		}
	}
}

func TestLoadBinaryRejectsGarbage(t *testing.T) {
	if _, err := LoadBinary(bytes.NewReader([]byte("NOPE00000000"))); err == nil {
		t.Fatal("bad magic should fail")
	}
	if _, err := LoadBinary(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input should fail")
	}
}

func TestLoadBinaryRejectsTruncated(t *testing.T) {
	g := graph.FromEdges(3, false, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, "t")
	var buf bytes.Buffer
	if err := StoreBinary(&buf, g); err != nil {
		t.Fatalf("store: %v", err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, 20, len(full) - 3} {
		if _, err := LoadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d should fail", cut)
		}
	}
}

func TestLoadBinaryRejectsUnsortedNeighbors(t *testing.T) {
	g := graph.FromEdges(3, false, []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}}, "swapped")
	g.OutEdges[0], g.OutEdges[1] = g.OutEdges[1], g.OutEdges[0]
	var buf bytes.Buffer
	if err := StoreBinary(&buf, g); err != nil {
		t.Fatalf("store: %v", err)
	}
	_, err := LoadBinary(&buf)
	if err == nil || !strings.Contains(err.Error(), "vertex 0 are not sorted") {
		t.Fatalf("want an unsorted-list error naming vertex 0, got %v", err)
	}
}
