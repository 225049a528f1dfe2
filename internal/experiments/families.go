package experiments

import (
	"fmt"

	"omega/internal/graph"
	"omega/internal/graph/gen"
)

// BuildFamily generates a graph from one of the named synthetic families —
// the shared dataset constructor behind cmd/omega-sim, cmd/graphgen, and
// ad-hoc studies. Families: "rmat", "ba", "er", "road", "ws".
func BuildFamily(family string, scale int, seed uint64, undirected, weighted bool) (*graph.Graph, error) {
	if scale < 2 || scale > 30 {
		return nil, fmt.Errorf("experiments: scale %d out of range", scale)
	}
	n := 1 << scale
	switch family {
	case "rmat":
		cfg := gen.DefaultRMAT(scale, seed)
		cfg.Undirected = undirected
		cfg.Weighted = weighted
		return gen.RMAT(cfg), nil
	case "ba":
		return gen.BarabasiAlbert(gen.BAConfig{
			NumVertices:      n,
			EdgesPerVertex:   12,
			Seed:             seed,
			Undirected:       undirected,
			Weighted:         weighted,
			BackEdgeFraction: 0.3,
		}), nil
	case "er":
		return gen.ErdosRenyi(gen.ERConfig{
			NumVertices: n, NumEdges: 16 * n, Seed: seed,
			Undirected: undirected, Weighted: weighted,
		}), nil
	case "road":
		return gen.RoadGrid(gen.RoadConfig{
			Side: 1 << (scale / 2), ExtraFraction: 0.1, Seed: seed,
			Weighted: weighted,
		}), nil
	case "ws":
		return gen.WattsStrogatz(gen.WSConfig{
			NumVertices: n, K: 8, Beta: 0.1, Seed: seed, Weighted: weighted,
		}), nil
	}
	return nil, fmt.Errorf("experiments: unknown graph family %q (want rmat, ba, er, road, ws)", family)
}
