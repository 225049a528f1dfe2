// Package reorder implements the offline vertex reorderings of paper §III
// and §VI: full in-degree sort, out-degree sort, and a SlashBurn-like
// community ordering used as a negative control in §III.
//
// A reordering is a permutation newID[oldID]; Apply relabels a graph so
// that vertex 0 is the most popular, matching Figure 6 ("lower ID
// indicates a higher connectivity").
package reorder

import (
	"cmp"
	"slices"

	"omega/internal/graph"
)

// Method selects a reordering algorithm.
type Method int

const (
	// Identity leaves the original ordering ("orig" in §III).
	Identity Method = iota
	// InDegree sorts all vertices by descending in-degree.
	InDegree
	// OutDegree sorts all vertices by descending out-degree.
	OutDegree
	// SlashBurn approximates SlashBurn: iteratively remove the highest-
	// degree hub, then order remaining "spokes" by community. Included as
	// the paper's negative control (no speedup in §III).
	SlashBurn
)

// String names the method for experiment output.
func (m Method) String() string {
	switch m {
	case Identity:
		return "identity"
	case InDegree:
		return "in-degree"
	case OutDegree:
		return "out-degree"
	case SlashBurn:
		return "slashburn"
	}
	return "unknown"
}

// Permutation maps old vertex IDs to new vertex IDs.
type Permutation []graph.VertexID

// Compute returns the permutation for the chosen method on g.
func Compute(g *graph.Graph, m Method) Permutation {
	n := g.NumVertices()
	switch m {
	case Identity:
		p := make(Permutation, n)
		for v := range p {
			p[v] = graph.VertexID(v)
		}
		return p
	case InDegree:
		return byDegree(g.InOffsets)
	case OutDegree:
		return byDegree(g.OutOffsets)
	case SlashBurn:
		return slashBurn(g)
	}
	panic("reorder: unknown method")
}

// byDegree ranks vertices by descending degree (ties: lower old ID first)
// and assigns new IDs in rank order; the degree of v is
// offsets[v+1]-offsets[v]. It is a counting sort on maxDeg-deg, visiting
// vertices in ascending ID, so it yields exactly the permutation of a
// stable sort by descending degree in O(n + maxDeg).
func byDegree(offsets []uint64) Permutation {
	n := max(len(offsets)-1, 0)
	var maxDeg uint64
	for v := 0; v < n; v++ {
		maxDeg = max(maxDeg, offsets[v+1]-offsets[v])
	}
	// next[maxDeg-d] starts as the number of vertices with degree above d:
	// the first rank of degree d.
	next := make([]graph.VertexID, maxDeg+2)
	for v := 0; v < n; v++ {
		next[maxDeg-(offsets[v+1]-offsets[v])+1]++
	}
	for i := 1; i < len(next); i++ {
		next[i] += next[i-1]
	}
	p := make(Permutation, n)
	for v := 0; v < n; v++ {
		bucket := maxDeg - (offsets[v+1] - offsets[v])
		p[v] = next[bucket]
		next[bucket]++
	}
	return p
}

// slashBurn approximates SlashBurn (Lim, Kang, Faloutsos 2014): repeatedly
// "slash" the highest-degree hub to the front, then "burn" — assign the
// smallest connected components to the back — and recurse on the giant
// component. We run a bounded number of rounds.
func slashBurn(g *graph.Graph) Permutation {
	n := g.NumVertices()
	removed := make([]bool, n)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = g.InDegree(graph.VertexID(v)) + g.OutDegree(graph.VertexID(v))
	}
	front := make([]graph.VertexID, 0, n)
	back := make([]graph.VertexID, 0, n)
	hubsPerRound := n / 100
	if hubsPerRound < 1 {
		hubsPerRound = 1
	}
	liveCount := n
	for round := 0; round < 64 && liveCount > 0; round++ {
		// Slash: take the hubsPerRound highest-degree live vertices.
		type vd struct {
			v graph.VertexID
			d int
		}
		live := make([]vd, 0, liveCount)
		for v := 0; v < n; v++ {
			if !removed[v] {
				live = append(live, vd{graph.VertexID(v), deg[v]})
			}
		}
		slices.SortFunc(live, func(x, y vd) int {
			if x.d != y.d {
				return cmp.Compare(y.d, x.d)
			}
			return cmp.Compare(x.v, y.v)
		})
		take := hubsPerRound
		if take > len(live) {
			take = len(live)
		}
		for i := 0; i < take; i++ {
			front = append(front, live[i].v)
			removed[live[i].v] = true
			liveCount--
		}
		// Burn: find connected components among the remaining vertices;
		// all but the largest go to the back.
		comp := components(g, removed)
		largest := -1
		largestSize := -1
		sizes := map[int]int{}
		for v := 0; v < n; v++ {
			if removed[v] {
				continue
			}
			sizes[comp[v]]++
		}
		for c, sz := range sizes {
			if sz > largestSize || (sz == largestSize && c < largest) {
				largest, largestSize = c, sz
			}
		}
		// Collect non-giant components deterministically by vertex ID.
		for v := 0; v < n; v++ {
			if removed[v] || comp[v] == largest {
				continue
			}
			back = append(back, graph.VertexID(v))
			removed[v] = true
			liveCount--
		}
		if largestSize <= hubsPerRound {
			// Giant component is tiny; flush it front-first and stop.
			for v := 0; v < n; v++ {
				if !removed[v] {
					front = append(front, graph.VertexID(v))
					removed[v] = true
					liveCount--
				}
			}
		}
	}
	for v := 0; v < n; v++ {
		if !removed[v] {
			front = append(front, graph.VertexID(v))
		}
	}
	// New order: slashed hubs first, then burned spokes in reverse burn
	// order (later burns are closer to hubs).
	p := make(Permutation, n)
	rank := 0
	for _, v := range front {
		p[v] = graph.VertexID(rank)
		rank++
	}
	for i := len(back) - 1; i >= 0; i-- {
		p[back[i]] = graph.VertexID(rank)
		rank++
	}
	return p
}

// components labels the connected components (ignoring direction) of the
// not-removed subgraph; removed vertices get label -1.
func components(g *graph.Graph, removed []bool) []int {
	n := g.NumVertices()
	comp := make([]int, n)
	for v := range comp {
		comp[v] = -1
	}
	next := 0
	queue := make([]graph.VertexID, 0, 1024)
	for s := 0; s < n; s++ {
		if removed[s] || comp[s] >= 0 {
			continue
		}
		comp[s] = next
		queue = append(queue[:0], graph.VertexID(s))
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, u := range g.OutNeighbors(v) {
				if !removed[u] && comp[u] < 0 {
					comp[u] = next
					queue = append(queue, u)
				}
			}
			for _, u := range g.InNeighbors(v) {
				if !removed[u] && comp[u] < 0 {
					comp[u] = next
					queue = append(queue, u)
				}
			}
		}
		next++
	}
	return comp
}

// Apply relabels g according to p, returning a new graph in which old
// vertex v becomes p[v]. Weights follow their edges.
func Apply(g *graph.Graph, p Permutation) *graph.Graph {
	n := g.NumVertices()
	if len(p) != n {
		panic("reorder: permutation size mismatch")
	}
	b := graph.NewBuilder(n, g.Undirected)
	if g.Weighted() {
		b.SetWeighted()
	}
	b.Grow(len(g.OutEdges))
	for v := 0; v < n; v++ {
		ws := g.OutWeights(graph.VertexID(v))
		for i, u := range g.OutNeighbors(graph.VertexID(v)) {
			// For undirected graphs each edge is stored twice; add each
			// direction as a directed arc to avoid re-doubling.
			var w int32 = 1
			if ws != nil {
				w = ws[i]
			}
			if g.Undirected {
				// Builder with undirected=true doubles edges; emit only
				// the canonical direction.
				if v <= int(u) {
					b.AddEdge(p[v], p[u], w)
				}
			} else {
				b.AddEdge(p[v], p[u], w)
			}
		}
	}
	ng := b.Build(g.Name + "+" + "reordered")
	return ng
}
