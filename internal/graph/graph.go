// Package graph provides the compressed-sparse-row graph representation,
// degree statistics, and power-law characterization used throughout the
// OMEGA study (Table I of the paper).
//
// A Graph stores both outgoing and incoming adjacency in CSR form, exactly
// like Ligra: graph algorithms push along out-edges and pull along in-edges,
// and OMEGA's vertex placement is driven by in-degree.
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// VertexID identifies a vertex. IDs are dense in [0, NumVertices).
type VertexID = uint32

// Graph is a directed graph in CSR form. For undirected graphs every edge
// is stored in both directions and Undirected is set.
//
// The zero value is an empty graph.
type Graph struct {
	// OutOffsets has length NumVertices+1; the out-neighbors of v are
	// OutEdges[OutOffsets[v]:OutOffsets[v+1]].
	OutOffsets []uint64
	OutEdges   []VertexID
	// InOffsets/InEdges mirror the above for incoming edges.
	InOffsets []uint64
	InEdges   []VertexID
	// Weights[i] is the weight of OutEdges[i]; nil for unweighted graphs.
	Weights []int32
	// InWeights[i] is the weight of InEdges[i]; nil for unweighted graphs.
	InWeights []int32
	// Undirected records that the edge set is symmetric. NumEdges still
	// counts each stored (directed) arc once, matching Ligra.
	Undirected bool
	// Name labels the dataset in experiment output (e.g. "rmat-18").
	Name string
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int {
	if len(g.OutOffsets) == 0 {
		return 0
	}
	return len(g.OutOffsets) - 1
}

// NumEdges returns the number of stored directed arcs.
func (g *Graph) NumEdges() int { return len(g.OutEdges) }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v VertexID) int {
	return int(g.OutOffsets[v+1] - g.OutOffsets[v])
}

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v VertexID) int {
	return int(g.InOffsets[v+1] - g.InOffsets[v])
}

// OutNeighbors returns the out-neighbor slice of v. The caller must not
// modify the result.
func (g *Graph) OutNeighbors(v VertexID) []VertexID {
	return g.OutEdges[g.OutOffsets[v]:g.OutOffsets[v+1]]
}

// InNeighbors returns the in-neighbor slice of v. The caller must not
// modify the result.
func (g *Graph) InNeighbors(v VertexID) []VertexID {
	return g.InEdges[g.InOffsets[v]:g.InOffsets[v+1]]
}

// OutWeights returns the weights parallel to OutNeighbors(v), or nil for an
// unweighted graph.
func (g *Graph) OutWeights(v VertexID) []int32 {
	if g.Weights == nil {
		return nil
	}
	return g.Weights[g.OutOffsets[v]:g.OutOffsets[v+1]]
}

// InWeightsOf returns the weights parallel to InNeighbors(v), or nil for an
// unweighted graph.
func (g *Graph) InWeightsOf(v VertexID) []int32 {
	if g.InWeights == nil {
		return nil
	}
	return g.InWeights[g.InOffsets[v]:g.InOffsets[v+1]]
}

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.Weights != nil }

// Validate checks structural invariants: monotone offsets, in/out edge
// count agreement, neighbor IDs in range, sorted neighbor lists, and (for
// undirected graphs) symmetry of the adjacency structure. It is used by
// tests and loaders.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if len(g.InOffsets) != len(g.OutOffsets) {
		return fmt.Errorf("graph: in/out offset length mismatch: %d vs %d",
			len(g.InOffsets), len(g.OutOffsets))
	}
	if len(g.OutOffsets) > 0 {
		if g.OutOffsets[0] != 0 || g.InOffsets[0] != 0 {
			return fmt.Errorf("graph: offsets must start at 0")
		}
		if g.OutOffsets[n] != uint64(len(g.OutEdges)) {
			return fmt.Errorf("graph: out offset end %d != %d edges",
				g.OutOffsets[n], len(g.OutEdges))
		}
		if g.InOffsets[n] != uint64(len(g.InEdges)) {
			return fmt.Errorf("graph: in offset end %d != %d edges",
				g.InOffsets[n], len(g.InEdges))
		}
	}
	if len(g.InEdges) != len(g.OutEdges) {
		return fmt.Errorf("graph: in-edge count %d != out-edge count %d",
			len(g.InEdges), len(g.OutEdges))
	}
	if g.Weights != nil && len(g.Weights) != len(g.OutEdges) {
		return fmt.Errorf("graph: weight count %d != edge count %d",
			len(g.Weights), len(g.OutEdges))
	}
	if g.InWeights != nil && len(g.InWeights) != len(g.InEdges) {
		return fmt.Errorf("graph: in-weight count %d != edge count %d",
			len(g.InWeights), len(g.InEdges))
	}
	for v := 0; v < n; v++ {
		if g.OutOffsets[v] > g.OutOffsets[v+1] {
			return fmt.Errorf("graph: out offsets not monotone at %d", v)
		}
		if g.InOffsets[v] > g.InOffsets[v+1] {
			return fmt.Errorf("graph: in offsets not monotone at %d", v)
		}
	}
	for i, u := range g.OutEdges {
		if int(u) >= n {
			return fmt.Errorf("graph: out edge %d target %d out of range", i, u)
		}
	}
	for i, u := range g.InEdges {
		if int(u) >= n {
			return fmt.Errorf("graph: in edge %d target %d out of range", i, u)
		}
	}
	// Spot-check in/out consistency: the in-degree sum per target computed
	// from out-edges must equal the stored in-degrees.
	inDeg := make([]uint64, n)
	for _, u := range g.OutEdges {
		inDeg[u]++
	}
	for v := 0; v < n; v++ {
		if got := g.InOffsets[v+1] - g.InOffsets[v]; got != inDeg[v] {
			return fmt.Errorf("graph: vertex %d stored in-degree %d, out-edges imply %d",
				v, got, inDeg[v])
		}
	}
	// TC's merge intersection and checkSymmetric's binary search rely on
	// sorted neighbor lists.
	for v := 0; v < n; v++ {
		if !slices.IsSorted(g.OutNeighbors(VertexID(v))) {
			return fmt.Errorf("graph: out-neighbors of vertex %d are not sorted", v)
		}
		if !slices.IsSorted(g.InNeighbors(VertexID(v))) {
			return fmt.Errorf("graph: in-neighbors of vertex %d are not sorted", v)
		}
	}
	if g.Undirected {
		if err := g.checkSymmetric(); err != nil {
			return err
		}
	}
	return nil
}

func (g *Graph) checkSymmetric() error {
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		for _, u := range g.OutNeighbors(VertexID(v)) {
			if !contains(g.OutNeighbors(u), VertexID(v)) {
				return fmt.Errorf("graph: undirected but edge %d->%d has no reverse", v, u)
			}
		}
	}
	return nil
}

func contains(s []VertexID, x VertexID) bool {
	// Neighbor lists are sorted by Builder.Build, so binary search.
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	return i < len(s) && s[i] == x
}

// Edge is a directed (possibly weighted) arc used by builders and loaders.
type Edge struct {
	Src, Dst VertexID
	Weight   int32
}

// Builder accumulates edges and produces a CSR Graph.
type Builder struct {
	n          int
	edges      []Edge
	undirected bool
	weighted   bool
	// deduped records that edges are (src,dst)-sorted with unique keys
	// (established by Dedup, broken by AddEdge), so Build skips its sort:
	// unique keys admit only one sorted permutation, which is the order
	// Build's own sort would produce.
	deduped bool
}

// NewBuilder returns a builder for a graph with n vertices.
// If undirected is true, AddEdge(u,v) also stores (v,u).
func NewBuilder(n int, undirected bool) *Builder {
	return &Builder{n: n, undirected: undirected}
}

// SetWeighted declares that edges carry weights.
func (b *Builder) SetWeighted() { b.weighted = true }

// Grow reserves room for n more stored edges, so a caller that knows its
// edge count fills the builder without regrowing it. An undirected
// AddEdge stores two edges.
func (b *Builder) Grow(n int) { b.edges = slices.Grow(b.edges, n) }

// AddEdge records an edge; self-loops are kept, duplicates are kept
// (deduplicate with Dedup before Build if needed).
func (b *Builder) AddEdge(src, dst VertexID, weight int32) {
	if int(src) >= b.n || int(dst) >= b.n {
		panic(fmt.Sprintf("graph: edge %d->%d out of range n=%d", src, dst, b.n))
	}
	b.edges = append(b.edges, Edge{src, dst, weight})
	if b.undirected && src != dst {
		b.edges = append(b.edges, Edge{dst, src, weight})
	}
	b.deduped = false
}

// Dedup sorts the edges by (src,dst), removes duplicate (src,dst) pairs,
// keeping the first weight in that order, and removes self-loops. Build
// then reuses the sorted order without sorting again. Useful for
// synthetic generators.
func (b *Builder) Dedup() {
	if b.weighted {
		// Weighted: "the first weight" after sorting depends on the
		// comparator sort's (unstable) ordering of equal (src,dst) keys,
		// so the sort algorithm is part of the observable behaviour.
		slices.SortFunc(b.edges, bySrcDst)
	} else {
		// Unweighted: weights are never materialized by Build, so edges
		// with equal (src,dst) are observably identical and any sorted
		// permutation dedups to the same result.
		radixSortEdges(b.edges)
	}
	out := b.edges[:0]
	var last Edge
	haveLast := false
	for _, e := range b.edges {
		if e.Src == e.Dst {
			continue
		}
		if haveLast && e.Src == last.Src && e.Dst == last.Dst {
			continue
		}
		out = append(out, e)
		last = e
		haveLast = true
	}
	b.edges = out
	b.deduped = true
}

// bySrcDst orders edges by (Src, Dst).
func bySrcDst(x, y Edge) int {
	if x.Src != y.Src {
		return cmp.Compare(x.Src, y.Src)
	}
	return cmp.Compare(x.Dst, y.Dst)
}

// radixSortEdges stably sorts edges by (Src, Dst), with an LSD counting
// sort over the packed 64-bit key (four 16-bit digit passes) or, for
// short lists, a stable comparator sort: edges with equal keys keep their
// order.
func radixSortEdges(edges []Edge) {
	if len(edges) < 64 {
		slices.SortStableFunc(edges, bySrcDst)
		return
	}
	key := func(e Edge) uint64 { return uint64(e.Src)<<32 | uint64(e.Dst) }
	tmp := make([]Edge, len(edges))
	count := make([]uint32, 1<<16)
	src, dst := edges, tmp
	for pass := 0; pass < 4; pass++ {
		shift := uint(16 * pass)
		// Skip a pass whose digit is constant across all edges (common for
		// the high halves of Src/Dst on small graphs).
		first := key(src[0]) >> shift & 0xffff
		constant := true
		for i := range src {
			d := key(src[i]) >> shift & 0xffff
			count[d]++
			if d != first {
				constant = false
			}
		}
		if constant {
			count[first] = 0
			continue
		}
		var sum uint32
		for d := range count {
			c := count[d]
			count[d] = sum
			sum += c
		}
		for i := range src {
			d := key(src[i]) >> shift & 0xffff
			dst[count[d]] = src[i]
			count[d]++
		}
		clear(count)
		src, dst = dst, src
	}
	if &src[0] != &edges[0] {
		copy(edges, src)
	}
}

// Build produces the CSR graph. Out-lists are sorted by target ID and
// in-lists by source ID; edges with equal (src, dst) keep their insertion
// order in both.
//
// Build stably sorts the edges once, by (src, dst), with radixSortEdges
// (a deduped builder is already in that order). The out fill consumes
// that order, and scattering the same order into the in buckets leaves
// each in-list ascending by source.
func (b *Builder) Build(name string) *Graph {
	g := &Graph{
		Name:       name,
		Undirected: b.undirected,
		OutOffsets: make([]uint64, b.n+1),
		InOffsets:  make([]uint64, b.n+1),
		OutEdges:   make([]VertexID, len(b.edges)),
		InEdges:    make([]VertexID, len(b.edges)),
	}
	if b.weighted {
		g.Weights = make([]int32, len(b.edges))
		g.InWeights = make([]int32, len(b.edges))
	}
	// Count degrees.
	for _, e := range b.edges {
		g.OutOffsets[e.Src+1]++
		g.InOffsets[e.Dst+1]++
	}
	for v := 0; v < b.n; v++ {
		g.OutOffsets[v+1] += g.OutOffsets[v]
		g.InOffsets[v+1] += g.InOffsets[v]
	}
	if !b.deduped {
		radixSortEdges(b.edges)
	}
	outPos := make([]uint64, b.n)
	for _, e := range b.edges {
		p := g.OutOffsets[e.Src] + outPos[e.Src]
		g.OutEdges[p] = e.Dst
		if b.weighted {
			g.Weights[p] = e.Weight
		}
		outPos[e.Src]++
	}
	inPos := make([]uint64, b.n)
	for _, e := range b.edges {
		p := g.InOffsets[e.Dst] + inPos[e.Dst]
		g.InEdges[p] = e.Src
		if b.weighted {
			g.InWeights[p] = e.Weight
		}
		inPos[e.Dst]++
	}
	return g
}

// FromEdges is a convenience wrapper: build a graph from an edge list.
func FromEdges(n int, undirected bool, edges []Edge, name string) *Graph {
	b := NewBuilder(n, undirected)
	if undirected {
		b.Grow(2 * len(edges))
	} else {
		b.Grow(len(edges))
	}
	for _, e := range edges {
		b.AddEdge(e.Src, e.Dst, e.Weight)
	}
	return b.Build(name)
}
