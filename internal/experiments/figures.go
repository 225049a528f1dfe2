package experiments

import (
	"fmt"
	"math"

	"omega/internal/algorithms"
	"omega/internal/analytical"
	"omega/internal/core"
	"omega/internal/graph"
	"omega/internal/power"
)

// datasetFor picks the right dataset variant for an algorithm, mirroring
// the paper ("CC and TC require symmetric graphs, hence we run them on one
// of the undirected-graph datasets").
func datasetFor(spec algorithms.Spec, ds Dataset) (Dataset, bool) {
	if spec.NeedsUndirected && !ds.Undirected {
		return Dataset{}, false
	}
	return ds, true
}

// runPair runs one algorithm on one dataset on both machines. The
// dataset is built (or fetched from the shared cache) before the two
// machine variants fan out concurrently; see runVariants.
func runPair(spec algorithms.Spec, ds Dataset, o Options) (base, om core.MachineStats, pr prepared) {
	weighted := spec.Name == "SSSP"
	pr = prepareDataset(ds, o, weighted)
	bCfg, oCfg := core.ScaledPair(pr.g.NumVertices(), spec.VtxPropBytes, o.Coverage)
	res := runMachines(o, spec.Name, pr, bCfg, oCfg)
	return res[0], res[1], pr
}

// Figure3 reproduces the TMAM execution breakdown: graph workloads are
// backend-bound, dominated by memory wait time (paper: ~71% memory-bound
// on average).
func Figure3(o Options) *Table {
	o = o.Defaults()
	t := &Table{
		ID:     "Figure 3",
		Title:  "TMAM execution breakdown on the baseline CMP",
		Header: []string{"workload", "retiring%", "frontend%", "backend%", "memory-bound%"},
	}
	specs := algorithms.All()
	fns := make([]func() core.MachineStats, len(specs))
	for i, spec := range specs {
		fns[i] = func() core.MachineStats {
			ds := mustDataset("rmat")
			if spec.NeedsUndirected {
				ds = mustDataset("apu")
			}
			pr := prepareDataset(ds, o, spec.Name == "SSSP")
			bCfg, _ := core.ScaledPair(pr.g.NumVertices(), spec.VtxPropBytes, o.Coverage)
			// The run label stays the bare dataset name (as in Figure 4a,
			// 4b and 5) so the metric-stream goldens are unchanged; the
			// cell itself is shared with Figure 14 and friends regardless
			// of label.
			return runCell(o, spec.Name, pr, bCfg, pr.g.Name)
		}
	}
	var memSum float64
	var n int
	for i, st := range runVariants(o, fns...) {
		tot := float64(st.TMAM.Total())
		if tot == 0 {
			continue
		}
		mem := 100 * float64(st.TMAM.MemoryBound) / tot
		t.AddRow(specs[i].Name,
			100*float64(st.TMAM.Retiring)/tot,
			100*float64(st.TMAM.Frontend)/tot,
			100*float64(st.TMAM.MemoryBound+st.TMAM.CoreBound)/tot,
			mem)
		memSum += mem
		n++
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"average memory-bound %.1f%% (paper: ~71%%; same conclusion — memory dominates)",
		memSum/float64(n)))
	return t
}

// Figure4a reproduces the baseline cache hit-rate profile (paper: below
// 50% on L2 and LLC for most workloads).
func Figure4a(o Options) *Table {
	o = o.Defaults()
	t := &Table{
		ID:     "Figure 4a",
		Title:  "baseline cache hit rates per workload",
		Header: []string{"workload", "dataset", "L1%", "L2(LLC)%"},
	}
	type cell struct {
		ds string
		st core.MachineStats
	}
	specs := algorithms.All()
	fns := make([]func() cell, len(specs))
	for i, spec := range specs {
		fns[i] = func() cell {
			ds := mustDataset("rmat")
			if spec.NeedsUndirected {
				ds = mustDataset("apu")
			}
			pr := prepareDataset(ds, o, spec.Name == "SSSP")
			bCfg, _ := core.ScaledPair(pr.g.NumVertices(), spec.VtxPropBytes, o.Coverage)
			return cell{ds.Name, runCell(o, spec.Name, pr, bCfg, pr.g.Name)}
		}
	}
	for i, c := range runVariants(o, fns...) {
		t.AddRow(specs[i].Name, c.ds, 100*c.st.L1HitRate, 100*c.st.L2HitRate)
	}
	return t
}

// baselineTopShare is the top-20% vtxProp access share of spec on ds on
// the scaled baseline machine. It requests the same cell, under the same
// run label, as Figure 3/4a, and the cell is the baseline half of
// runPair's, so on a shared cell cache the skew figures replay them.
func baselineTopShare(o Options, spec algorithms.Spec, ds Dataset) float64 {
	pr := prepareDataset(ds, o, spec.Name == "SSSP")
	bCfg, _ := core.ScaledPair(pr.g.NumVertices(), spec.VtxPropBytes, o.Coverage)
	return cellFor(o, spec.Name, pr, bCfg, pr.g.Name).TopShare
}

// Figure4b reproduces the access-skew measurement: the share of vtxProp
// accesses that target the 20% most-connected vertices (paper: >75%).
func Figure4b(o Options) *Table {
	o = o.Defaults()
	t := &Table{
		ID:     "Figure 4b",
		Title:  "share of vtxProp accesses to the top-20% most-connected vertices",
		Header: []string{"workload", "dataset", "top-20% access share %"},
	}
	type cell struct {
		ds    string
		share float64
	}
	specs := algorithms.All()
	fns := make([]func() cell, len(specs))
	for i, spec := range specs {
		fns[i] = func() cell {
			ds := mustDataset("rmat")
			if spec.NeedsUndirected {
				ds = mustDataset("apu")
			}
			return cell{ds.Name, baselineTopShare(o, spec, ds)}
		}
	}
	for i, c := range runVariants(o, fns...) {
		t.AddRow(specs[i].Name, c.ds, 100*c.share)
	}
	t.Notes = append(t.Notes, "paper: consistently over 75% on power-law graphs")
	return t
}

// Figure5 reproduces the heat map: the Figure 4b metric across the full
// algorithm × dataset grid.
func Figure5(o Options) *Table {
	o = o.Defaults()
	specs := algorithms.All()
	t := &Table{
		ID:    "Figure 5",
		Title: "heat map: % of vtxProp accesses to top-20% vertices",
	}
	t.Header = []string{"dataset"}
	for _, s := range specs {
		t.Header = append(t.Header, s.Name)
	}
	for _, ds := range StandardDatasets() {
		// One goroutine per supported algorithm cell; the whole row shares
		// the dataset, merged back in column order.
		fns := make([]func() string, len(specs))
		for i, spec := range specs {
			if _, ok := datasetFor(spec, ds); !ok {
				fns[i] = func() string { return "-" }
				continue
			}
			fns[i] = func() string {
				return fmt.Sprintf("%.0f", 100*baselineTopShare(o, spec, ds))
			}
		}
		t.Rows = append(t.Rows, append([]string{ds.Name}, runVariants(o, fns...)...))
	}
	t.Notes = append(t.Notes,
		"paper: ~90-100 on power-law datasets, ~20-30 on road networks")
	return t
}

// Figure14 reproduces the headline speedup grid: OMEGA vs baseline for
// every algorithm × dataset combination (paper: 2x on average, PageRank
// highest at ~2.8x, TC limited).
func Figure14(o Options) *Table {
	o = o.Defaults()
	specs := algorithms.All()
	t := &Table{
		ID:    "Figure 14",
		Title: "OMEGA speedup over the baseline CMP",
	}
	t.Header = []string{"dataset"}
	for _, s := range specs {
		t.Header = append(t.Header, s.Name)
	}
	logSum, n := 0.0, 0
	for _, ds := range StandardDatasets() {
		row := []string{ds.Name}
		for _, spec := range specs {
			if _, ok := datasetFor(spec, ds); !ok {
				row = append(row, "-")
				continue
			}
			base, om, _ := runPair(spec, ds, o)
			sp := om.Speedup(base)
			row = append(row, fmt.Sprintf("%.2f", sp))
			if sp > 0 {
				logSum += math.Log(sp)
				n++
			}
		}
		t.Rows = append(t.Rows, row)
	}
	gm := math.Exp(logSum / float64(n))
	t.Notes = append(t.Notes, fmt.Sprintf(
		"geometric mean %.2fx over %d runs (paper: 2x on average)", gm, n))
	return t
}

// Figure15 reproduces the last-level storage hit rate comparison for
// PageRank (paper: baseline 44%, OMEGA over 75%).
func Figure15(o Options) *Table {
	o = o.Defaults()
	spec, _ := algorithms.ByName("PageRank")
	t := &Table{
		ID:     "Figure 15",
		Title:  "last-level storage hit rate, PageRank",
		Header: []string{"dataset", "baseline LLC%", "omega L2+SP%"},
	}
	for _, ds := range StandardDatasets() {
		base, om, _ := runPair(spec, ds, o)
		t.AddRow(ds.Name, 100*base.LLCHitRate, 100*om.LLCHitRate)
	}
	t.Notes = append(t.Notes,
		"paper: 44% baseline vs >75% OMEGA on average")
	return t
}

// Figure16 reproduces DRAM bandwidth utilization for PageRank
// (paper: OMEGA improves utilization by 2.28x on average).
func Figure16(o Options) *Table {
	o = o.Defaults()
	spec, _ := algorithms.ByName("PageRank")
	t := &Table{
		ID:     "Figure 16",
		Title:  "DRAM bandwidth utilization, PageRank",
		Header: []string{"dataset", "baseline util%", "omega util%", "improvement x"},
	}
	sum, n := 0.0, 0
	for _, ds := range StandardDatasets() {
		base, om, _ := runPair(spec, ds, o)
		imp := 0.0
		if base.DRAMUtilized > 0 {
			imp = om.DRAMUtilized / base.DRAMUtilized
		}
		t.AddRow(ds.Name, 100*base.DRAMUtilized, 100*om.DRAMUtilized, imp)
		sum += imp
		n++
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"average improvement %.2fx (paper: 2.28x)", sum/float64(n)))
	return t
}

// Figure17 reproduces the on-chip traffic analysis for PageRank
// (paper: OMEGA reduces traffic by ~3.2x on average).
func Figure17(o Options) *Table {
	o = o.Defaults()
	spec, _ := algorithms.ByName("PageRank")
	t := &Table{
		ID:    "Figure 17",
		Title: "on-chip traffic, PageRank",
		Header: []string{"dataset", "baseline MB", "omega MB", "reduction x",
			"omega word MB", "omega line MB"},
	}
	sum, n := 0.0, 0
	for _, ds := range StandardDatasets() {
		base, om, _ := runPair(spec, ds, o)
		red := float64(base.NoCBytes) / float64(om.NoCBytes)
		t.AddRow(ds.Name,
			float64(base.NoCBytes)/(1<<20), float64(om.NoCBytes)/(1<<20), red,
			float64(om.NoCWordBytes)/(1<<20), float64(om.NoCLineBytes)/(1<<20))
		sum += red
		n++
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"average reduction %.2fx (paper: ~3.2x)", sum/float64(n)))
	return t
}

// Figure18 reproduces the power-law vs non-power-law comparison
// (paper: OMEGA gains at most ~1.15x on the USA road graph).
func Figure18(o Options) *Table {
	o = o.Defaults()
	t := &Table{
		ID:     "Figure 18",
		Title:  "power-law (social) vs non-power-law (road) speedups",
		Header: []string{"algorithm", "power-law speedup", "road speedup"},
	}
	for _, name := range []string{"PageRank", "BFS"} {
		spec, _ := algorithms.ByName(name)
		plBase, plOm, _ := runPair(spec, mustDataset("social"), o)
		rdBase, rdOm, _ := runPair(spec, mustDataset("road"), o)
		t.AddRow(name, plOm.Speedup(plBase), rdOm.Speedup(rdBase))
	}
	t.Notes = append(t.Notes,
		"paper: lj ~2-3x vs USA <=1.15x (road vtxProp lacks skew; only ~20% of",
		"accesses hit the top-20% vertices). Road graphs small enough to fit in SP",
		"still gain (rCA/rPA effect); the scaled SP here holds only 20%.")
	return t
}

// Figure19 reproduces the scratchpad size sensitivity study: OMEGA keeps
// most of its gain with half- and quarter-size scratchpads (paper: 1.4x
// PageRank / 1.5x BFS at 4MB = quarter size).
func Figure19(o Options) *Table {
	o = o.Defaults()
	t := &Table{
		ID:     "Figure 19",
		Title:  "scratchpad size sensitivity (social dataset)",
		Header: []string{"algorithm", "coverage", "vtxProp access share%", "speedup"},
	}
	for _, name := range []string{"PageRank", "BFS"} {
		spec, _ := algorithms.ByName(name)
		pr := prepareDataset(mustDataset("social"), o, false)
		cum := graph.CumulativeDegreeShare(pr.g)
		for _, coverage := range []float64{0.20, 0.10, 0.05} {
			baseCfg, omCfg := core.ScaledPair(pr.g.NumVertices(), spec.VtxPropBytes, 0.20)
			// Cap residency to emulate a smaller scratchpad while the
			// arrays stay 20%-sized; the paper shrinks the SRAM and keeps
			// the L2 fixed, with the same effect on coverage.
			omCfg.SPResidentCap = maxInt(int(coverage*float64(pr.g.NumVertices())), 1)
			res := runMachines(o, spec.Name, pr, baseCfg, omCfg)
			baseSt, omSt := res[0], res[1]
			pct := int(coverage*100) - 1
			if pct < 0 {
				pct = 0
			}
			t.AddRow(name, fmt.Sprintf("%.0f%%", coverage*100),
				100*cum[pct], omSt.Speedup(baseSt))
		}
	}
	t.Notes = append(t.Notes,
		"paper: 1.4x (PageRank) and 1.5x (BFS) with quarter-size scratchpads")
	return t
}

// Figure20 reproduces the large-dataset study: the paper's high-level
// analytical model on uk-2002/twitter-2010-scale graphs, validated
// against the detailed simulator on a generatable graph.
func Figure20(o Options) *Table {
	o = o.Defaults()
	t := &Table{
		ID:     "Figure 20",
		Title:  "large-dataset performance (high-level model)",
		Header: []string{"scenario", "coverage", "hot access share", "speedup"},
	}
	m := analytical.DefaultModel()
	scenarios := []analytical.Params{
		analytical.PageRankScenario("uk-2002/PR", 18.5e6, 298e6, 0.10, 0.60, 0.40),
		analytical.PageRankScenario("twitter/PR", 41.6e6, 1468e6, 0.05, 0.47, 0.35),
		analytical.BFSScenario("uk-2002/BFS", 18.5e6, 298e6, 0.10, 0.60, 0.40),
		analytical.BFSScenario("twitter/BFS", 41.6e6, 1468e6, 0.05, 0.47, 0.35),
	}
	for _, p := range scenarios {
		r := m.Estimate(p)
		t.AddRow(p.Name, fmt.Sprintf("%.0f%%", p.HotCoverage*100),
			fmt.Sprintf("%.0f%%", p.HotAccessShare*100), r.Speedup())
	}
	// Validation against the detailed simulator (paper: within 7%).
	spec, _ := algorithms.ByName("PageRank")
	base, om, pr := runPair(spec, mustDataset("rmat"), o)
	detailed := om.Speedup(base)
	cum := graph.CumulativeDegreeShare(pr.g)
	hotShare := cum[19] // top 20%
	params := analytical.PageRankScenario("rmat (validation)",
		int64(pr.g.NumVertices()), int64(pr.g.NumEdges()),
		0.20, hotShare, base.LLCHitRate)
	est := m.Estimate(params).Speedup()
	errPct := 100 * math.Abs(est-detailed) / detailed
	t.AddRow(params.Name, "20%", fmt.Sprintf("%.0f%%", 100*hotShare), est)
	t.Notes = append(t.Notes,
		fmt.Sprintf("detailed simulator on the validation graph: %.2fx; model error %.1f%% (paper: within 7%%)",
			detailed, errPct),
		"paper: twitter PR 1.68x at 5%; uk/twitter BFS ~1.35x at 10%")
	return t
}

// Figure21 reproduces the memory-system energy comparison for PageRank
// (paper: 2.5x energy saving on average).
func Figure21(o Options) *Table {
	o = o.Defaults()
	spec, _ := algorithms.ByName("PageRank")
	t := &Table{
		ID:    "Figure 21",
		Title: "memory-system energy, PageRank",
		Header: []string{"dataset", "baseline uJ", "omega uJ", "saving x",
			"omega DRAM uJ", "omega SP uJ"},
	}
	sum, n := 0.0, 0
	for _, ds := range StandardDatasets() {
		pr := prepareDataset(ds, o, false)
		bCfg, oCfg := core.ScaledPair(pr.g.NumVertices(), spec.VtxPropBytes, o.Coverage)
		res := runMachines(o, spec.Name, pr, bCfg, oCfg)
		be := power.Energy(bCfg, res[0])
		oe := power.Energy(oCfg, res[1])
		saving := oe.Saving(be)
		t.AddRow(ds.Name, be.TotaluJ(), oe.TotaluJ(), saving, oe.DRAMuJ, oe.SPuJ)
		sum += saving
		n++
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"average saving %.2fx (paper: 2.5x)", sum/float64(n)))
	return t
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
