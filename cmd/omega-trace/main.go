// Command omega-trace runs one algorithm under an access tracer and prints
// a per-(data-structure, hierarchy-level) latency summary — the raw
// material behind the paper's motivation figures: where do the accesses
// go, and what do they cost on each machine?
//
// Usage:
//
//	omega-trace -algo PageRank -scale 12                  # both machines
//	omega-trace -algo BFS -machine omega -tsv events.tsv  # dump raw events
package main

import (
	"flag"
	"fmt"
	"os"

	"omega/internal/algorithms"
	"omega/internal/core"
	"omega/internal/experiments"
	"omega/internal/graph/reorder"
	"omega/internal/ligra"
	"omega/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "omega-trace:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		algoName = flag.String("algo", "PageRank", "algorithm to trace")
		scale    = flag.Int("scale", 12, "log2 vertex count (R-MAT)")
		seed     = flag.Uint64("seed", 42, "generator seed")
		machine  = flag.String("machine", "both", "baseline, omega, or both")
		tsvPath  = flag.String("tsv", "", "write raw events (first 100k) as TSV")
	)
	flag.Parse()

	switch *machine {
	case "baseline", "omega", "both":
	default:
		return fmt.Errorf("unknown -machine %q (want baseline, omega, or both)", *machine)
	}
	spec, ok := algorithms.ByName(*algoName)
	if !ok {
		return fmt.Errorf("unknown algorithm %q", *algoName)
	}
	g, err := experiments.BuildFamily("rmat", *scale, *seed, spec.NeedsUndirected, spec.NeedsWeights)
	if err != nil {
		return err
	}
	g = reorder.Apply(g, reorder.Compute(g, reorder.InDegree))

	baseCfg, omCfg := core.ScaledPair(g.NumVertices(), spec.VtxPropBytes, 0.20)
	runOn := func(cfg core.Config) error {
		m, err := core.NewMachineChecked(cfg)
		if err != nil {
			return err
		}
		col := trace.NewCollector(100000)
		m.TraceAccesses(col.Record)
		st := spec.Run(ligra.New(m, g))
		fmt.Printf("== %s: %s on %s (%d cycles) ==\n", cfg.Name, spec.Name, g.Name, st.Cycles)
		if err := col.WriteSummary(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if *tsvPath != "" {
			f, err := os.Create(fmt.Sprintf("%s.%s", *tsvPath, cfg.Name))
			if err != nil {
				return err
			}
			defer f.Close()
			if err := col.WriteTSV(f); err != nil {
				return err
			}
		}
		return nil
	}
	if *machine == "baseline" || *machine == "both" {
		if err := runOn(baseCfg); err != nil {
			return err
		}
	}
	if *machine == "omega" || *machine == "both" {
		if err := runOn(omCfg); err != nil {
			return err
		}
	}
	return nil
}
