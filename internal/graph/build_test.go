package graph

import (
	"cmp"
	"slices"
	"strings"
	"testing"
)

// byDstSrc orders edges by (Dst, Src).
func byDstSrc(x, y Edge) int {
	if x.Dst != y.Dst {
		return cmp.Compare(x.Dst, y.Dst)
	}
	return cmp.Compare(x.Src, y.Src)
}

// referenceBuild is Build as a pair of stable comparator sorts: (src,dst)
// for the out fill, then (dst,src) for the in fill, both skipped for a
// deduped builder. It leaves b untouched. FuzzBuild holds Build's one-sort
// construction to it.
func referenceBuild(b *Builder, name string) *Graph {
	edges := slices.Clone(b.edges)
	g := &Graph{
		Name:       name,
		Undirected: b.undirected,
		OutOffsets: make([]uint64, b.n+1),
		InOffsets:  make([]uint64, b.n+1),
		OutEdges:   make([]VertexID, len(edges)),
		InEdges:    make([]VertexID, len(edges)),
	}
	if b.weighted {
		g.Weights = make([]int32, len(edges))
		g.InWeights = make([]int32, len(edges))
	}
	for _, e := range edges {
		g.OutOffsets[e.Src+1]++
		g.InOffsets[e.Dst+1]++
	}
	for v := 0; v < b.n; v++ {
		g.OutOffsets[v+1] += g.OutOffsets[v]
		g.InOffsets[v+1] += g.InOffsets[v]
	}
	if !b.deduped {
		slices.SortStableFunc(edges, bySrcDst)
	}
	outPos := make([]uint64, b.n)
	for _, e := range edges {
		p := g.OutOffsets[e.Src] + outPos[e.Src]
		g.OutEdges[p] = e.Dst
		if b.weighted {
			g.Weights[p] = e.Weight
		}
		outPos[e.Src]++
	}
	if !b.deduped {
		slices.SortStableFunc(edges, byDstSrc)
	}
	inPos := make([]uint64, b.n)
	for _, e := range edges {
		p := g.InOffsets[e.Dst] + inPos[e.Dst]
		g.InEdges[p] = e.Src
		if b.weighted {
			g.InWeights[p] = e.Weight
		}
		inPos[e.Dst]++
	}
	return g
}

// csrDiff names the first CSR array in which got and want differ, or
// returns "" when all six agree.
func csrDiff(got, want *Graph) string {
	switch {
	case got.Weighted() != want.Weighted():
		return "weightedness"
	case !slices.Equal(got.OutOffsets, want.OutOffsets):
		return "OutOffsets"
	case !slices.Equal(got.OutEdges, want.OutEdges):
		return "OutEdges"
	case !slices.Equal(got.Weights, want.Weights):
		return "Weights"
	case !slices.Equal(got.InOffsets, want.InOffsets):
		return "InOffsets"
	case !slices.Equal(got.InEdges, want.InEdges):
		return "InEdges"
	case !slices.Equal(got.InWeights, want.InWeights):
		return "InWeights"
	}
	return ""
}

// fuzzEdges encodes edges three bytes each (src, dst, weight) in the
// layout FuzzBuild decodes.
func fuzzEdges(edges ...Edge) []byte {
	var data []byte
	for _, e := range edges {
		data = append(data, byte(e.Src), byte(e.Dst), byte(e.Weight))
	}
	return data
}

// FuzzBuild: for any edge list — duplicates and self-loops included —
// Build must produce the reference's six CSR arrays, with and without
// Dedup, and the result must validate.
func FuzzBuild(f *testing.F) {
	// Weighted repeated keys, whose weights must keep insertion order,
	// both below and above radixSortEdges' short-list cutoff.
	repeated := fuzzEdges(Edge{0, 1, 5}, Edge{0, 1, 9}, Edge{2, 1, 3}, Edge{0, 1, 7})
	f.Add(uint8(3), true, false, repeated)
	var long []byte
	for i := 0; i < 200; i++ {
		long = append(long, byte(i*7), byte(i*13), byte(i))
	}
	f.Add(uint8(10), true, false, long)
	f.Add(uint8(10), true, true, long)
	// Unweighted duplicates and self-loops.
	f.Add(uint8(4), false, false, fuzzEdges(Edge{1, 2, 0}, Edge{1, 2, 0}, Edge{3, 3, 0}, Edge{0, 2, 0}))
	f.Add(uint8(50), false, true, long)
	// An empty list, and a single vertex.
	f.Add(uint8(8), true, false, []byte{})
	f.Add(uint8(1), true, true, fuzzEdges(Edge{0, 0, 4}, Edge{0, 0, 2}))
	f.Fuzz(func(t *testing.T, nByte uint8, weighted, undirected bool, data []byte) {
		n := 1 + int(nByte)%64
		for _, dedup := range []bool{false, true} {
			b := NewBuilder(n, undirected)
			if weighted {
				b.SetWeighted()
			}
			for i := 0; i+2 < len(data); i += 3 {
				b.AddEdge(VertexID(int(data[i])%n), VertexID(int(data[i+1])%n), int32(int8(data[i+2])))
			}
			if dedup {
				b.Dedup()
			}
			want := referenceBuild(b, "ref")
			got := b.Build("got")
			if d := csrDiff(got, want); d != "" {
				t.Fatalf("dedup=%v: %s differs from the reference build", dedup, d)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("dedup=%v: %v", dedup, err)
			}
		}
	})
}

// TestBuildKeepsInsertionOrderOfRepeatedKeys: 13 out-arcs of vertex 0 in
// descending target order, then a second 0->1 arc. slices.SortFunc
// insertion-sorts 12 or fewer elements, which is stable, so only a longer
// list tells it from a stable sort; below radixSortEdges' 64-edge cutoff
// the list takes the comparator path.
func TestBuildKeepsInsertionOrderOfRepeatedKeys(t *testing.T) {
	b := NewBuilder(14, false)
	b.SetWeighted()
	for dst := 13; dst >= 1; dst-- {
		b.AddEdge(0, VertexID(dst), int32(14-dst))
	}
	b.AddEdge(0, 1, 99)
	g := b.Build("ties")
	wantOut := []int32{13, 99, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := g.OutWeights(0); !slices.Equal(got, wantOut) {
		t.Errorf("out-weights of vertex 0 = %v, want %v", got, wantOut)
	}
	if got, want := g.InWeightsOf(1), []int32{13, 99}; !slices.Equal(got, want) {
		t.Errorf("in-weights of vertex 1 = %v, want %v", got, want)
	}
}

func TestValidateRejectsUnsortedOutList(t *testing.T) {
	g := FromEdges(3, false, []Edge{{0, 1, 1}, {0, 2, 1}}, "swapped")
	g.OutEdges[0], g.OutEdges[1] = g.OutEdges[1], g.OutEdges[0]
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "vertex 0") {
		t.Fatalf("want an unsorted-list error naming vertex 0, got %v", err)
	}
}

func TestValidateReportsUnsortedBeforeSymmetry(t *testing.T) {
	// A triangle plus a pendant edge. Reversing vertex 0's list breaks the
	// binary search checkSymmetric relies on, which would misreport the
	// graph as asymmetric.
	g := FromEdges(4, true, []Edge{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, {2, 3, 1}}, "tri")
	slices.Reverse(g.OutNeighbors(0))
	err := g.Validate()
	const want = "out-neighbors of vertex 0 are not sorted"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("want %q, got %v", want, err)
	}
}
