// Quickstart: generate a power-law graph, reorder it for OMEGA's static
// vertex placement, and run PageRank on both the baseline CMP and the
// OMEGA machine — the paper's headline comparison in ~20 lines.
package main

import (
	"fmt"
	"log"

	"omega"
)

func main() {
	// 1. A natural (power-law) graph: R-MAT with 2^13 vertices.
	g := omega.RMAT(13, 42)
	stats := omega.Characterize(g)
	fmt.Printf("graph: %d vertices, %d edges, power-law=%v (top-20%% holds %.0f%% of in-edges)\n",
		stats.NumVertices, stats.NumEdges, stats.PowerLaw, stats.InDegreeConnectivity)

	// 2. OMEGA's offline preprocessing (paper §VI): in-degree reordering
	// so the most-connected vertices get the lowest IDs.
	g = omega.ReorderByInDegree(g)

	// 3. Run PageRank on a same-total-storage baseline/OMEGA pair whose
	// scratchpads hold the hottest 20% of vertex data.
	cmp, err := omega.Compare("PageRank", g, 0.20)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n--- baseline CMP ---")
	fmt.Print(cmp.Baseline.Summary())
	fmt.Println("\n--- OMEGA ---")
	fmt.Print(cmp.OMEGA.Summary())

	fmt.Printf("\nspeedup:            %.2fx (paper: ~2.8x for PageRank)\n", cmp.Speedup())
	fmt.Printf("traffic reduction:  %.2fx (paper: ~3.2x)\n", cmp.TrafficReduction())
	fmt.Printf("energy saving:      %.2fx (paper: ~2.5x)\n", cmp.EnergySaving())

	// 4. Look inside via the observability layer: Compare records both
	// runs' per-iteration metric series (the same stream omega-bench
	// -metrics writes).
	offloads := uint64(0)
	for _, s := range cmp.Series() {
		if s.Machine == "omega" && s.Component == "machine" && s.Name == "offloads" {
			offloads = s.Value // cumulative; the last sample is the total
		}
	}
	fmt.Printf("PISC offloads:      %d (from Comparison.Series)\n", offloads)
}
