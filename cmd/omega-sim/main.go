// Command omega-sim runs one (algorithm × dataset × machine) simulation
// and prints the machine statistics, or a baseline-vs-OMEGA comparison.
//
// Usage:
//
//	omega-sim -algo PageRank -graph rmat -scale 14 [-machine both|baseline|omega]
//	omega-sim -algo BFS -graph road -scale 14 -coverage 0.2
//	omega-sim -algo CC -graph ba -scale 13 -edgelist path/to/snap.txt -edge-errors 10
//	omega-sim -algo PageRank -faults 1e-3 -fault-seed 7   # inject faults
//	omega-sim -algo PageRank -fault-site directory:1e-3,pisc-alu:1e-4   # per-site rates
//	omega-sim -algo PageRank -metrics run.jsonl           # per-iteration metric series
//	omega-sim -algo PageRank -timeline spans.json         # chrome://tracing core activity
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"omega/internal/algorithms"
	"omega/internal/core"
	"omega/internal/experiments"
	"omega/internal/faults"
	"omega/internal/graph"
	"omega/internal/graph/gio"
	"omega/internal/graph/reorder"
	"omega/internal/ligra"
	"omega/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "omega-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		algoName  = flag.String("algo", "PageRank", "algorithm (PageRank, BFS, SSSP, BC, Radii, CC, TC, KC)")
		graphKdn  = flag.String("graph", "rmat", "dataset family: rmat, ba, er, road, ws")
		scale     = flag.Int("scale", 14, "log2 of the vertex count for generated graphs")
		seed      = flag.Uint64("seed", 42, "generator seed")
		machine   = flag.String("machine", "both", "baseline, omega, or both")
		coverage  = flag.Float64("coverage", 0.20, "fraction of vtxProp the scratchpads hold")
		edgelist  = flag.String("edgelist", "", "load a SNAP edge list instead of generating")
		edgeErrs  = flag.Int("edge-errors", 0, "tolerate up to N malformed edge-list lines (0 = strict)")
		noPISC    = flag.Bool("no-pisc", false, "disable PISC engines (scratchpads only)")
		faultRate = flag.Float64("faults", 0, "fault injection rate per DRAM read / NoC message (0 = off)")
		faultSite = flag.String("fault-site", "", "per-site injection rates, e.g. \"directory:1e-3,linebuf:1e-4\" (sites: dram, noc, sp-parity, directory, linebuf, pisc-alu)")
		faultSeed = flag.Uint64("fault-seed", 1, "seed for the fault injector streams")
		jsonOut   = flag.Bool("json", false, "print machine stats as JSON instead of text")
		metrics   = flag.String("metrics", "", "write per-iteration metric samples to this file (.tsv = TSV, else JSONL)")
		timeline  = flag.String("timeline", "", "write a chrome://tracing span timeline of per-core activity to this file")
	)
	flag.Parse()
	if err := core.CheckCoverage(*coverage); err != nil {
		return fmt.Errorf("-coverage: %w", err)
	}
	switch *machine {
	case "baseline", "omega", "both":
	default:
		return fmt.Errorf("unknown -machine %q (want baseline, omega, or both)", *machine)
	}
	var fc faults.Config
	switch {
	case *faultRate != 0 && *faultSite != "":
		return fmt.Errorf("-faults and -fault-site are mutually exclusive")
	case *faultRate != 0:
		fc = experiments.ResilienceFaults(*faultSeed, *faultRate)
	case *faultSite != "":
		var err error
		if fc, err = faults.ParseSiteConfig(*faultSite); err != nil {
			return err
		}
		fc.Seed = *faultSeed
	}
	// Negative and NaN rates fail here rather than running fault-free.
	if err := fc.Validate(); err != nil {
		return err
	}
	spec, ok := algorithms.ByName(*algoName)
	if !ok {
		return fmt.Errorf("unknown algorithm %q", *algoName)
	}
	// Both output files are created before anything is simulated, so an
	// unwritable path fails before the run rather than after it.
	var series *obs.SeriesFile
	if *metrics != "" {
		f, err := obs.CreateSeriesFile(*metrics)
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		defer f.Close()
		series = f
	}
	var timelineFile *os.File
	if *timeline != "" {
		f, err := os.Create(*timeline)
		if err != nil {
			return fmt.Errorf("timeline: %w", err)
		}
		defer f.Close()
		timelineFile = f
	}

	g, err := buildGraph(*graphKdn, *scale, *seed, *edgelist, *edgeErrs, spec)
	if err != nil {
		return err
	}
	// OMEGA's static placement: in-degree reordering (§VI).
	g = reorder.Apply(g, reorder.Compute(g, reorder.InDegree))

	baseCfg, omCfg := core.ScaledPair(g.NumVertices(), spec.VtxPropBytes, *coverage)
	if *noPISC {
		omCfg.PISC = false
		omCfg.Name = "omega-nopisc"
	}
	baseCfg.Faults = fc
	omCfg.Faults = fc
	fmt.Printf("dataset %s: %d vertices, %d edges\n", g.Name, g.NumVertices(), g.NumEdges())

	emit := func(st core.MachineStats) error {
		if *jsonOut {
			data, err := st.JSON()
			if err != nil {
				return err
			}
			fmt.Println(string(data))
			return nil
		}
		fmt.Print(st.Summary())
		return nil
	}
	// Both observability collectors are mutex-protected, so the
	// concurrent -machine both path can share them; samples and spans
	// carry the machine name, and the writers sort canonically at the
	// end, so the files do not depend on goroutine interleaving.
	var buf *obs.Buffer
	if series != nil {
		buf = obs.NewBuffer()
	}
	var spans *obs.Timeline
	if timelineFile != nil {
		spans = obs.NewTimeline()
	}
	simulate := func(cfg core.Config) (core.MachineStats, error) {
		m, err := core.NewMachineChecked(cfg)
		if err != nil {
			return core.MachineStats{}, err
		}
		if buf != nil {
			m.AttachSink(buf)
		}
		if spans != nil {
			m.TraceSpans(spans.Span)
		}
		return spec.Run(ligra.New(m, g)), nil
	}
	runOn := func(cfg core.Config) (core.MachineStats, error) {
		st, err := simulate(cfg)
		if err != nil {
			return st, err
		}
		return st, emit(st)
	}
	var baseStats, omStats core.MachineStats
	switch *machine {
	case "baseline":
		if baseStats, err = runOn(baseCfg); err != nil {
			return err
		}
	case "omega":
		if omStats, err = runOn(omCfg); err != nil {
			return err
		}
	case "both":
		// The two machines are independent deterministic simulations over
		// the same immutable graph, so they run concurrently; output is
		// held back and printed in baseline-then-omega order.
		var wg sync.WaitGroup
		var baseErr, omErr error
		wg.Add(2)
		go func() { defer wg.Done(); baseStats, baseErr = simulate(baseCfg) }()
		go func() { defer wg.Done(); omStats, omErr = simulate(omCfg) }()
		wg.Wait()
		if baseErr != nil {
			return baseErr
		}
		if omErr != nil {
			return omErr
		}
		if err := emit(baseStats); err != nil {
			return err
		}
		if err := emit(omStats); err != nil {
			return err
		}
	}
	if *machine == "both" {
		fmt.Printf("speedup (omega vs baseline): %.2fx\n", omStats.Speedup(baseStats))
		if baseStats.NoCBytes > 0 && omStats.NoCBytes > 0 {
			fmt.Printf("on-chip traffic reduction: %.2fx\n",
				float64(baseStats.NoCBytes)/float64(omStats.NoCBytes))
		}
		if baseStats.DRAMUtilized > 0 && omStats.DRAMUtilized > 0 {
			fmt.Printf("DRAM bandwidth utilization: %.2fx\n",
				omStats.DRAMUtilized/baseStats.DRAMUtilized)
		}
		if *faultRate > 0 || *faultSite != "" {
			baseExp := float64(baseStats.DRAMBytes + baseStats.NoCBytes)
			omExp := float64(omStats.DRAMBytes + omStats.NoCBytes)
			if omExp > 0 {
				fmt.Printf("bytes exposed to faulty paths (base/omega): %.2fx fewer on omega\n",
					baseExp/omExp)
			}
		}
	}
	if series != nil {
		samples := buf.Drain()
		obs.SortSamples(samples)
		for _, smp := range samples {
			series.Sample(smp)
		}
		if err := series.Close(); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		fmt.Printf("wrote %s\n", *metrics)
	}
	if timelineFile != nil {
		// Load via chrome://tracing or https://ui.perfetto.dev.
		if err := spans.WriteChromeTrace(timelineFile); err != nil {
			return fmt.Errorf("timeline: %w", err)
		}
		if err := timelineFile.Close(); err != nil {
			return fmt.Errorf("timeline: %w", err)
		}
		fmt.Printf("wrote %s (%d spans)\n", *timeline, spans.Len())
	}
	return nil
}

func buildGraph(family string, scale int, seed uint64, edgelist string, edgeErrs int, spec algorithms.Spec) (*graph.Graph, error) {
	if edgelist != "" {
		f, err := os.Open(edgelist)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		g, rep, err := gio.LoadEdgeListWithReport(f, edgelist, gio.EdgeListOptions{
			Undirected:  spec.NeedsUndirected,
			MaxBadLines: edgeErrs,
		})
		if err != nil {
			return nil, err
		}
		if rep.BadLines > 0 {
			fmt.Fprintf(os.Stderr, "warning: skipped %d/%d malformed lines (first: %s)\n",
				rep.BadLines, rep.Lines, rep.FirstBad)
		}
		return g, nil
	}
	return experiments.BuildFamily(family, scale, seed, spec.NeedsUndirected, spec.NeedsWeights)
}
