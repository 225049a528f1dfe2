// Package gen generates the synthetic datasets used in place of the paper's
// real-world graph files (SNAP / WebGraph / DIMACS), which are not available
// offline.
//
// Power-law stand-ins:
//   - RMAT reproduces the R-MAT recursive-matrix skew (the paper's "rMat"
//     dataset is itself R-MAT with default parameters).
//   - BarabasiAlbert models preferential attachment, the mechanism the paper
//     cites as the origin of natural-graph power laws (soc/web/wiki-like).
//
// Non-power-law stand-ins:
//   - RoadGrid models a planar road network with near-uniform small degree
//     (roadNet-CA/PA, Western-USA).
//   - ErdosRenyi gives a uniform random graph for control experiments.
//
// All generators are deterministic for a given seed.
package gen

import (
	"fmt"
	"math"
	"slices"

	"omega/internal/graph"
	"omega/internal/stats"
)

// RMATConfig parameterizes the recursive-matrix generator of Chakrabarti,
// Zhan and Faloutsos (ICDM'04). Defaults match the common Graph500-style
// skew (a=0.57 b=0.19 c=0.19 d=0.05).
type RMATConfig struct {
	ScaleLog2  int     // number of vertices = 1 << ScaleLog2
	EdgeFactor int     // edges ~= EdgeFactor * vertices (R-MAT default 16)
	A, B, C    float64 // quadrant probabilities; D = 1-A-B-C
	Seed       uint64
	Undirected bool
	Weighted   bool // assign deterministic pseudo-random weights in [1,64)
}

// DefaultRMAT returns the configuration used by the experiment suite for a
// given scale.
func DefaultRMAT(scaleLog2 int, seed uint64) RMATConfig {
	return RMATConfig{
		ScaleLog2:  scaleLog2,
		EdgeFactor: 16,
		A:          0.57, B: 0.19, C: 0.19,
		Seed: seed,
	}
}

// RMAT generates an R-MAT graph. Duplicate edges and self-loops are
// removed, so the final edge count is slightly below ScaleLog2*EdgeFactor.
// It panics on a scale outside [1, 30], on a negative or NaN quadrant
// probability, and when A+B+C exceeds 1; all-zero A, B, C mean the
// defaults.
func RMAT(cfg RMATConfig) *graph.Graph {
	if cfg.ScaleLog2 <= 0 || cfg.ScaleLog2 > 30 {
		panic(fmt.Sprintf("gen: bad RMAT scale %d", cfg.ScaleLog2))
	}
	if cfg.EdgeFactor <= 0 {
		cfg.EdgeFactor = 16
	}
	if cfg.A == 0 && cfg.B == 0 && cfg.C == 0 {
		cfg.A, cfg.B, cfg.C = 0.57, 0.19, 0.19
	}
	// !(x >= 0) also catches NaN.
	if !(cfg.A >= 0) || !(cfg.B >= 0) || !(cfg.C >= 0) || cfg.A+cfg.B+cfg.C > 1 {
		panic(fmt.Sprintf("gen: bad RMAT probabilities A=%v B=%v C=%v", cfg.A, cfg.B, cfg.C))
	}
	n := 1 << cfg.ScaleLog2
	m := n * cfg.EdgeFactor
	r := stats.NewRand(cfg.Seed)
	b := graph.NewBuilder(n, cfg.Undirected)
	if cfg.Weighted {
		b.SetWeighted()
	}
	if cfg.Undirected {
		b.Grow(2 * m)
	} else {
		b.Grow(m)
	}
	tA, tAB, tABC := quadrantThresholds(cfg.A, cfg.B, cfg.C)
	for i := 0; i < m; i++ {
		var src, dst uint64
		for depth := 0; depth < cfg.ScaleLog2; depth++ {
			s, d := quadrant(tA, tAB, tABC, r.Uint64()>>11)
			src |= s << depth
			dst |= d << depth
		}
		var w int32 = 1
		if cfg.Weighted {
			w = int32(1 + r.Intn(63))
		}
		b.AddEdge(graph.VertexID(src), graph.VertexID(dst), w)
	}
	b.Dedup()
	name := fmt.Sprintf("rmat-%d", cfg.ScaleLog2)
	if cfg.Undirected {
		name += "u"
	}
	return b.Build(name)
}

// quadrantThresholds turns the R-MAT probabilities into integer thresholds
// on k, where a uniform draw p = r.Float64() is exactly k/2^53 with
// k = r.Uint64()>>11. Since t·2^53 is exact in float64 and k is an
// integer, p < t holds exactly when k < ceil(t·2^53). Each threshold is
// stored minus one (wrapping to 2^64-1 for a zero probability) for bit.
// The three cumulative sums are rounded as float64, as a chain of p < A,
// p < A+B, p < A+B+C comparisons rounds them, so the quadrant of every
// draw is unchanged.
func quadrantThresholds(a, b, c float64) (tA, tAB, tABC uint64) {
	th := func(t float64) uint64 { return uint64(math.Ceil(t*(1<<53))) - 1 }
	return th(a), th(a + b), th(a + b + c)
}

// quadrant returns the source and destination bits of one R-MAT level
// for the draw p = k/2^53 (one r.Float64()), without a branch: p < A
// sets neither bit, p < A+B the destination bit, p < A+B+C the source
// bit and anything above both. bit(t, k) is 1 exactly when p is at or
// above the threshold t encodes, and the thresholds are ordered.
func quadrant(tA, tAB, tABC, k uint64) (src, dst uint64) {
	src = bit(tAB, k)
	return src, bit(tA, k) ^ src ^ bit(tABC, k)
}

// bit is 1 when k > t and 0 otherwise, read from the sign bit of t-k with
// no branch: k < 2^53 and t <= 2^53, so t-k wraps exactly when k > t. A
// zero-probability t = 2^64-1 gives 1 for every k, as p >= 0 always holds.
func bit(t, k uint64) uint64 { return (t - k) >> 63 }

// BAConfig parameterizes the Barabási–Albert preferential-attachment
// generator.
type BAConfig struct {
	NumVertices int
	// EdgesPerVertex is the number of out-edges each arriving vertex
	// creates toward existing vertices chosen by preferential attachment.
	EdgesPerVertex int
	Seed           uint64
	Undirected     bool
	Weighted       bool
	// BackEdgeFraction adds the reverse arc for this fraction of edges
	// (directed graphs only). Pure preferential attachment yields a DAG
	// pointing old-ward, which no real social network is; back edges
	// create the giant strongly connected component that makes directed
	// traversals (BFS, SSSP, BC) meaningful, as on the paper's lj/orkut.
	BackEdgeFraction float64
}

// BarabasiAlbert generates a preferential-attachment graph: each new vertex
// attaches to EdgesPerVertex existing vertices with probability
// proportional to their current degree. This yields the "rich get richer"
// in-degree skew of social and web graphs (paper §II).
func BarabasiAlbert(cfg BAConfig) *graph.Graph {
	if cfg.NumVertices < 2 {
		panic("gen: BA needs at least 2 vertices")
	}
	if cfg.EdgesPerVertex < 1 {
		cfg.EdgesPerVertex = 8
	}
	r := stats.NewRand(cfg.Seed)
	b := graph.NewBuilder(cfg.NumVertices, cfg.Undirected)
	if cfg.Weighted {
		b.SetWeighted()
	}
	// targets holds one entry per edge endpoint; sampling uniformly from it
	// implements degree-proportional selection.
	targets := make([]graph.VertexID, 0, cfg.NumVertices*cfg.EdgesPerVertex*2)
	targets = append(targets, 0)
	// seen holds the targets the current vertex already links to.
	seen := make([]graph.VertexID, 0, cfg.EdgesPerVertex)
	for v := 1; v < cfg.NumVertices; v++ {
		k := cfg.EdgesPerVertex
		if k > v {
			k = v
		}
		seen = seen[:0]
		for e := 0; e < k; e++ {
			var dst graph.VertexID
			for {
				dst = targets[r.Intn(len(targets))]
				if dst != graph.VertexID(v) && !slices.Contains(seen, dst) {
					break
				}
			}
			seen = append(seen, dst)
			var w int32 = 1
			if cfg.Weighted {
				w = int32(1 + r.Intn(63))
			}
			b.AddEdge(graph.VertexID(v), dst, w)
			if !cfg.Undirected && cfg.BackEdgeFraction > 0 &&
				r.Float64() < cfg.BackEdgeFraction {
				b.AddEdge(dst, graph.VertexID(v), w)
			}
			targets = append(targets, dst)
		}
		targets = append(targets, graph.VertexID(v))
	}
	b.Dedup()
	return b.Build(fmt.Sprintf("ba-%d", cfg.NumVertices))
}

// ERConfig parameterizes the Erdős–Rényi G(n, m) generator.
type ERConfig struct {
	NumVertices int
	NumEdges    int
	Seed        uint64
	Undirected  bool
	Weighted    bool
}

// ErdosRenyi generates a uniform random graph with approximately NumEdges
// distinct edges.
func ErdosRenyi(cfg ERConfig) *graph.Graph {
	if cfg.NumVertices < 2 {
		panic("gen: ER needs at least 2 vertices")
	}
	r := stats.NewRand(cfg.Seed)
	b := graph.NewBuilder(cfg.NumVertices, cfg.Undirected)
	if cfg.Weighted {
		b.SetWeighted()
	}
	for i := 0; i < cfg.NumEdges; i++ {
		src := graph.VertexID(r.Intn(cfg.NumVertices))
		dst := graph.VertexID(r.Intn(cfg.NumVertices))
		var w int32 = 1
		if cfg.Weighted {
			w = int32(1 + r.Intn(63))
		}
		b.AddEdge(src, dst, w)
	}
	b.Dedup()
	return b.Build(fmt.Sprintf("er-%d", cfg.NumVertices))
}

// RoadConfig parameterizes the planar road-network generator.
type RoadConfig struct {
	// Side is the grid side; NumVertices = Side*Side.
	Side int
	// ExtraFraction adds this fraction of random "shortcut" edges between
	// nearby vertices, mimicking highway links. 0.1 is typical.
	ExtraFraction float64
	Seed          uint64
	Weighted      bool
}

// RoadGrid generates an undirected 2-D grid with a few local shortcuts and
// a small fraction of removed streets. Degrees concentrate around 2-4,
// like roadNet-CA/PA and Western-USA in Table I: the top-20 % in-degree
// connectivity lands near the paper's ~29 %.
func RoadGrid(cfg RoadConfig) *graph.Graph {
	if cfg.Side < 2 {
		panic("gen: road grid needs Side >= 2")
	}
	n := cfg.Side * cfg.Side
	r := stats.NewRand(cfg.Seed)
	b := graph.NewBuilder(n, true)
	if cfg.Weighted {
		b.SetWeighted()
	}
	id := func(x, y int) graph.VertexID { return graph.VertexID(y*cfg.Side + x) }
	weight := func(d int) int32 {
		if !cfg.Weighted {
			return 1
		}
		return int32(d + r.Intn(8))
	}
	for y := 0; y < cfg.Side; y++ {
		for x := 0; x < cfg.Side; x++ {
			// Drop ~7% of streets so the grid is irregular but stays
			// overwhelmingly connected.
			if x+1 < cfg.Side && r.Float64() > 0.07 {
				b.AddEdge(id(x, y), id(x+1, y), weight(1))
			}
			if y+1 < cfg.Side && r.Float64() > 0.07 {
				b.AddEdge(id(x, y), id(x, y+1), weight(1))
			}
		}
	}
	extra := int(cfg.ExtraFraction * float64(n))
	for i := 0; i < extra; i++ {
		x := r.Intn(cfg.Side)
		y := r.Intn(cfg.Side)
		dx := r.Intn(7) - 3
		dy := r.Intn(7) - 3
		nx, ny := x+dx, y+dy
		if nx < 0 || ny < 0 || nx >= cfg.Side || ny >= cfg.Side {
			continue
		}
		if nx == x && ny == y {
			continue
		}
		b.AddEdge(id(x, y), id(nx, ny), weight(abs(dx)+abs(dy)))
	}
	b.Dedup()
	return b.Build(fmt.Sprintf("road-%dx%d", cfg.Side, cfg.Side))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// WSConfig parameterizes the Watts–Strogatz small-world generator.
type WSConfig struct {
	NumVertices int
	// K is the (even) ring-lattice degree: each vertex links to K/2
	// neighbors on each side.
	K int
	// Beta is the rewiring probability; 0 = pure lattice (road-like),
	// 1 = random graph, small beta = small-world.
	Beta     float64
	Seed     uint64
	Weighted bool
}

// WattsStrogatz generates a small-world graph: high clustering like a
// lattice with the short diameters of a random graph, but *without* a
// power-law degree distribution — a second non-power-law control family
// alongside the road grids.
func WattsStrogatz(cfg WSConfig) *graph.Graph {
	if cfg.NumVertices < 4 {
		panic("gen: WS needs at least 4 vertices")
	}
	if cfg.K < 2 {
		cfg.K = 4
	}
	if cfg.K%2 != 0 {
		cfg.K++
	}
	if cfg.Beta < 0 {
		cfg.Beta = 0
	}
	if cfg.Beta > 1 {
		cfg.Beta = 1
	}
	n := cfg.NumVertices
	r := stats.NewRand(cfg.Seed)
	b := graph.NewBuilder(n, true)
	if cfg.Weighted {
		b.SetWeighted()
	}
	for v := 0; v < n; v++ {
		for j := 1; j <= cfg.K/2; j++ {
			dst := (v + j) % n
			if r.Float64() < cfg.Beta {
				// Rewire to a uniform random target.
				for tries := 0; tries < 8; tries++ {
					cand := r.Intn(n)
					if cand != v {
						dst = cand
						break
					}
				}
			}
			var w int32 = 1
			if cfg.Weighted {
				w = int32(1 + r.Intn(15))
			}
			if dst != v {
				b.AddEdge(graph.VertexID(v), graph.VertexID(dst), w)
			}
		}
	}
	b.Dedup()
	return b.Build(fmt.Sprintf("ws-%d", n))
}
