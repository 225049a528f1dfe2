package algorithms

import (
	"omega/internal/core"
	"omega/internal/graph"
	"omega/internal/ligra"
	"omega/internal/pisc"
)

// BFSResult carries the functional output of a simulated BFS.
type BFSResult struct {
	// Parents[v] is the BFS-tree parent of v, or ^0 when unreachable;
	// the root is its own parent.
	Parents []uint32
	// Rounds is the number of frontier expansions (graph levels).
	Rounds int
	// Visited is the number of reached vertices (including the root).
	Visited int
}

// BFS runs Ligra's breadth-first search from root: frontier-based
// traversal with compare-and-swap parent assignment, switching between
// push and pull with Ligra's threshold. Per Table II the atomic is only
// attempted after the unvisited check, so the atomic fraction stays low
// while random vtxProp reads stay high.
func BFS(fw *ligra.Framework, root uint32) *BFSResult {
	parents := fw.NewProp("parents", 4, pisc.Value(unreachable32))
	fw.Configure(pisc.StandardMicrocode("bfs-update", pisc.OpUnsignedCompareSwap, true, true))

	parents.Raw()[root] = pisc.Value(uint64(root))
	frontier := fw.NewVertexSubsetSparse([]uint32{root})
	fns := ligra.EdgeMapFns{
		UpdateAtomic: func(ctx *core.Ctx, s, d uint32, w int32) bool {
			return parents.AtomicUpdate(ctx, d, pisc.OpUnsignedCompareSwap,
				pisc.Value(uint64(s)))
		},
		Update: func(ctx *core.Ctx, s, d uint32, w int32) bool {
			return parents.Update(ctx, d, pisc.OpUnsignedCompareSwap,
				pisc.Value(uint64(s)))
		},
		Cond: func(ctx *core.Ctx, d uint32) bool {
			return uint64(parents.Get(ctx, d)) == unreachable32
		},
	}
	rounds := 0
	for !frontier.IsEmpty() {
		frontier = fw.EdgeMap(frontier, fns, ligra.Auto)
		rounds++
		if rounds > fw.NumVertices()+1 {
			panic("bfs: did not converge")
		}
	}
	res := &BFSResult{Rounds: rounds, Parents: make([]uint32, fw.NumVertices())}
	for v, p := range parents.Raw() {
		res.Parents[v] = uint32(uint64(p))
		if uint64(p) != unreachable32 {
			res.Visited++
		}
	}
	return res
}

// ReferenceBFS computes per-vertex BFS distances from root without
// simulation; unreachable vertices get ^0.
func ReferenceBFS(g *graph.Graph, root uint32) []uint32 {
	const unset = ^uint32(0)
	dist := make([]uint32, g.NumVertices())
	for i := range dist {
		dist[i] = unset
	}
	dist[root] = 0
	queue := []uint32{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.OutNeighbors(graph.VertexID(v)) {
			if dist[u] == unset {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}
