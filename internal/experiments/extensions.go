package experiments

import (
	"fmt"
	"math"

	"omega/internal/algorithms"
	"omega/internal/core"
	"omega/internal/graph"
	"omega/internal/graph/reorder"
	"omega/internal/graphmat"
	"omega/internal/ligra"
	"omega/internal/pisc"
	"omega/internal/slicing"
	"omega/internal/stats"
)

// ExtensionSlicing evaluates §VII's scaling techniques for graphs whose
// vtxProp exceeds on-chip storage: plain slicing vs power-law-aware
// slicing. The paper claims the latter "significantly reduces the total
// number of graph slices by up to 5x"; the runner also verifies sliced
// processing is exact.
func ExtensionSlicing(o Options) *Table {
	o = o.Defaults()
	t := &Table{
		ID:    "Extension E1 (§VII)",
		Title: "graph slicing for large graphs: plain vs power-law-aware",
		Header: []string{"dataset", "capacity (% of V)", "plain slices",
			"power-law slices", "reduction x", "sliced PR exact"},
	}
	for _, name := range []string{"rmat", "social"} {
		pr := prepareDataset(mustDataset(name), o, false)
		n := pr.g.NumVertices()
		for _, capPct := range []int{4, 10} {
			capacity := n * capPct / 100
			plain := slicing.BuildPlan(pr.g, capacity, 0.20, slicing.Plain)
			aware := slicing.BuildPlan(pr.g, capacity, 0.20, slicing.PowerLawAware)
			// Exactness check: sliced PageRank equals the reference.
			want := algorithms.ReferencePageRank(pr.g, 1, 0.85)
			got := slicing.PageRankSliced(pr.g, aware, 1, 0.85)
			exact := true
			for v := range want {
				if math.Abs(got[v]-want[v]) > 1e-9 {
					exact = false
					break
				}
			}
			t.AddRow(name, fmt.Sprintf("%d%%", capPct),
				plain.NumSlices(), aware.NumSlices(),
				float64(plain.NumSlices())/float64(aware.NumSlices()), exact)
		}
	}
	t.Notes = append(t.Notes,
		"paper §VII.3: slicing to fit only the top-20% hot vertices reduces the",
		"slice count (and its partition/merge overheads) by up to 5x")
	return t
}

// ExtensionDynamicGraph evaluates the §IX dynamic-graphs discussion: after
// the graph grows, OMEGA's static placement goes stale until the
// reordering is re-run ("by using a reordering algorithm to re-identify
// the popular vertices ... OMEGA can be adapted to continue to provide the
// same benefits").
func ExtensionDynamicGraph(o Options) *Table {
	o = o.Defaults()
	spec, _ := algorithms.ByName("PageRank")
	t := &Table{
		ID:    "Extension E2 (§IX)",
		Title: "dynamic graphs: stale vs refreshed vertex placement, PageRank",
		Header: []string{"growth", "stale-placement speedup", "refreshed speedup",
			"stale hot coverage %", "refreshed hot coverage %"},
	}
	base := prepareDataset(mustDataset("rmat"), o, false)
	for _, growthPct := range []int{25, 50} {
		grown := growGraph(base.g, growthPct, o.Seed+77)
		// Stale: keep the pre-growth ordering (the new hub mass is
		// misplaced). Refreshed: reorder the grown graph.
		refreshed := reorder.Apply(grown, reorder.Compute(grown, reorder.InDegree))
		staleSpeedup, staleCov := dynamicRun(spec, grown, o)
		freshSpeedup, freshCov := dynamicRun(spec, refreshed, o)
		t.AddRow(fmt.Sprintf("+%d%% edges", growthPct),
			staleSpeedup, freshSpeedup, 100*staleCov, 100*freshCov)
	}
	t.Notes = append(t.Notes,
		"re-running the (linear-time) n-th-element reordering restores the hot",
		"coverage and with it OMEGA's benefit — the §IX adaptation argument")
	return t
}

// ExtensionPagePolicy evaluates §IX direction 3: a hybrid DRAM page
// policy — close-page for the low-locality vertex data, open-page for the
// streaming structures — against uniform open- and close-page policies.
func ExtensionPagePolicy(o Options) *Table {
	o = o.Defaults()
	spec, _ := algorithms.ByName("PageRank")
	t := &Table{
		ID:     "Extension E3 (§IX)",
		Title:  "DRAM page policy: open vs close vs hybrid, PageRank on OMEGA",
		Header: []string{"policy", "cycles", "row-hit %", "speedup vs open"},
	}
	pr := prepareDataset(mustDataset("rmat"), o, false)
	_, omCfg := core.ScaledPair(pr.g.NumVertices(), spec.VtxPropBytes, o.Coverage)
	type variant struct {
		name string
		mut  func(*core.Config)
	}
	variants := []variant{
		{"open-page", func(c *core.Config) {}},
		{"close-page", func(c *core.Config) { c.ClosePage = true }},
		{"hybrid (§IX)", func(c *core.Config) { c.HybridPagePolicy = true }},
	}
	cfgs := make([]core.Config, len(variants))
	for i, v := range variants {
		cfgs[i] = omCfg
		v.mut(&cfgs[i])
	}
	// The speedup column is relative to the open-page variant (declared
	// first), so rows are assembled after the variant merge.
	res := runMachines(o, spec.Name, pr, cfgs...)
	openCycles := float64(res[0].Cycles)
	for i, st := range res {
		t.AddRow(variants[i].name, uint64(st.Cycles), 100*st.DRAMRowHit,
			openCycles/float64(st.Cycles))
	}
	t.Notes = append(t.Notes,
		"§IX proposes closing rows after low-locality vertex accesses while edge",
		"streams keep theirs open. Measured: the hybrid recovers most of pure",
		"close-page's loss, but on OMEGA plain open-page still wins — the",
		"scratchpads have already absorbed most low-locality traffic, so the",
		"hybrid's target barely reaches DRAM (a negative result for this",
		"future-work direction, at least at this scale)")
	return t
}

// ExtensionGraphMat demonstrates §V.F's framework independence: the same
// machines accelerate a GraphMat-style framework (atomic-free partitioned
// gather on the baseline; PISC-offloaded reduces on OMEGA) as well as the
// Ligra-style one, with no change to either programming interface.
func ExtensionGraphMat(o Options) *Table {
	o = o.Defaults()
	t := &Table{
		ID:    "Extension E4 (§V.F)",
		Title: "framework independence: Ligra-style vs GraphMat-style, PageRank",
		Header: []string{"dataset", "ligra speedup", "graphmat speedup",
			"graphmat PISC ops", "baseline atomics (graphmat)"},
	}
	spec, _ := algorithms.ByName("PageRank")
	for _, name := range []string{"rmat", "social"} {
		pr := prepareDataset(mustDataset(name), o, false)
		baseCfg, omCfg := core.ScaledPair(pr.g.NumVertices(), spec.VtxPropBytes, o.Coverage)
		// GraphMat-style: its footprint is two 8-byte vtxProps per vertex
		// (property + message accumulator), so its machines are sized for
		// 16 B/vertex — like Radii's 12 B in the Ligra suite. All four
		// variants — two frameworks × two machines — fan out together.
		gmBaseCfg, gmOmCfg := core.ScaledPair(pr.g.NumVertices(), 16, o.Coverage)
		res := runVariants(o,
			// The Ligra arms are plain registry cells (shared with the
			// Figure 14 grid); the GraphMat arms drive a different
			// framework, so they stay direct machine runs.
			func() core.MachineStats {
				return runCell(o, spec.Name, pr, baseCfg, "ligra/"+name)
			},
			func() core.MachineStats {
				return runCell(o, spec.Name, pr, omCfg, "ligra/"+name)
			},
			func() core.MachineStats {
				mb := o.newMachine(gmBaseCfg, "graphmat/"+name)
				graphmat.RunPageRank(mb, pr.g, 1, 0.85)
				return mb.Stats()
			},
			func() core.MachineStats {
				mo := o.newMachine(gmOmCfg, "graphmat/"+name)
				graphmat.RunPageRank(mo, pr.g, 1, 0.85)
				return mo.Stats()
			},
		)
		lb, lo, gb, gm := res[0], res[1], res[2], res[3]
		t.AddRow(name, lo.Speedup(lb), gm.Speedup(gb), gm.PISCOps, gb.Atomics)
	}
	t.Notes = append(t.Notes,
		"§V.F: \"To verify the functionality of the tool across multiple",
		"frameworks, we applied the tool to GraphMat in addition to Ligra\";",
		"GraphMat's baseline issues zero atomics (Table II discussion, §IV)")
	return t
}

// ExtensionScaleRobustness checks that the reproduction's headline shape
// is stable across simulation scales: OMEGA's PageRank speedup and the
// baseline LLC hit rate should hold their bands from 2^11 to 2^14 vertices
// (the paper cannot vary its dataset scale this way — gem5 is too slow —
// but a scaled simulator must demonstrate its results are not an artifact
// of one operating point).
func ExtensionScaleRobustness(o Options) *Table {
	o = o.Defaults()
	spec, _ := algorithms.ByName("PageRank")
	t := &Table{
		ID:    "Extension E5 (robustness)",
		Title: "headline shape across simulation scales, PageRank on rmat",
		Header: []string{"scale (log2 V)", "speedup", "baseline LLC%",
			"omega LLC+SP%", "traffic reduction x"},
	}
	scales := []int{11, 12, 13, 14}
	type point struct{ base, om core.MachineStats }
	fns := make([]func() point, len(scales))
	for i, scale := range scales {
		fns[i] = func() point {
			so := o
			so.Scale = scale
			pr := prepareDataset(mustDataset("rmat"), so, false)
			bCfg, oCfg := core.ScaledPair(pr.g.NumVertices(), spec.VtxPropBytes, so.Coverage)
			res := runMachines(so, spec.Name, pr, bCfg, oCfg)
			return point{res[0], res[1]}
		}
	}
	for i, p := range runVariants(o, fns...) {
		t.AddRow(scales[i], p.om.Speedup(p.base), 100*p.base.LLCHitRate,
			100*p.om.LLCHitRate, float64(p.base.NoCBytes)/float64(p.om.NoCBytes))
	}
	t.Notes = append(t.Notes,
		"the speedup, hit-rate gap, and traffic reduction must stay in their",
		"bands across scales for the scaled-machine methodology to be sound")
	return t
}

// ExtensionSeedSensitivity reruns the headline PageRank comparison across
// independent generator seeds, reporting the mean and range of the speedup
// per dataset family — the replication study a single-seed table cannot
// provide.
func ExtensionSeedSensitivity(o Options) *Table {
	o = o.Defaults()
	spec, _ := algorithms.ByName("PageRank")
	t := &Table{
		ID:     "Extension E6 (replication)",
		Title:  "PageRank speedup across generator seeds (5 replicates)",
		Header: []string{"dataset", "mean speedup", "min", "max"},
	}
	for _, name := range []string{"rmat", "social", "web", "road"} {
		ds := mustDataset(name)
		const reps = 5
		fns := make([]func() float64, reps)
		for rep := 0; rep < reps; rep++ {
			fns[rep] = func() float64 {
				so := o
				so.Seed = o.Seed + uint64(rep)*1000
				pr := prepareDataset(ds, so, false)
				bCfg, oCfg := core.ScaledPair(pr.g.NumVertices(), spec.VtxPropBytes, so.Coverage)
				res := runMachines(so, spec.Name, pr, bCfg, oCfg)
				return res[1].Speedup(res[0])
			}
		}
		var sum, min, max float64
		for rep, sp := range runVariants(o, fns...) {
			sum += sp
			if rep == 0 || sp < min {
				min = sp
			}
			if rep == 0 || sp > max {
				max = sp
			}
		}
		t.AddRow(name, sum/reps, min, max)
	}
	t.Notes = append(t.Notes,
		"the power-law families must stay clearly above 1x across seeds and",
		"the road family near 1x — the headline is not a seed artifact")
	return t
}

// ExtensionTraversalDirection compares BFS under the framework's three
// traversal strategies — sparse push, dense-forward scatter, and dense
// pull (Ligra's direction optimization) — on both machines. The pull
// variant trades atomics for random source reads, shifting which OMEGA
// mechanism (PISC offload vs scratchpad reads) carries the win.
func ExtensionTraversalDirection(o Options) *Table {
	o = o.Defaults()
	t := &Table{
		ID:    "Extension E7 (framework)",
		Title: "BFS traversal strategies on both machines (rmat)",
		Header: []string{"strategy", "baseline cycles", "omega cycles",
			"speedup", "baseline atomics"},
	}
	pr := prepareDataset(mustDataset("rmat"), o, false)
	root := algorithms.DefaultRoot(pr.g)
	type variant struct {
		name string
		pull bool
		mode ligra.Mode
	}
	for _, v := range []variant{
		{"auto (dense-forward)", false, ligra.Auto},
		{"push only", false, ligra.Push},
		{"auto (dense-pull)", true, ligra.Auto},
	} {
		run := func(cfg core.Config) core.MachineStats {
			fw := ligra.New(o.newMachine(cfg, v.name), pr.g)
			fw.SetDensePull(v.pull)
			runBFSMode(fw, root, v.mode)
			return fw.Machine().Stats()
		}
		baseCfg, omCfg := core.ScaledPair(pr.g.NumVertices(), 4, o.Coverage)
		res := runVariants(o,
			func() core.MachineStats { return run(baseCfg) },
			func() core.MachineStats { return run(omCfg) },
		)
		base, om := res[0], res[1]
		t.AddRow(v.name, uint64(base.Cycles), uint64(om.Cycles),
			om.Speedup(base), base.Atomics)
	}
	t.Notes = append(t.Notes,
		"dense-pull avoids atomics entirely (the CAS becomes a plain check-",
		"and-set owned by one worker); Ligra picks directions by the |E|/20",
		"threshold either way")
	return t
}

// runBFSMode is BFS with a forced edgeMap mode.
func runBFSMode(fw *ligra.Framework, root uint32, mode ligra.Mode) {
	parents := fw.NewProp("parents", 4, pisc.Value(^uint64(0)))
	fw.Configure(pisc.StandardMicrocode("bfs", pisc.OpUnsignedCompareSwap, true, true))
	parents.Raw()[root] = pisc.Value(uint64(root))
	frontier := fw.NewVertexSubsetSparse([]uint32{root})
	fns := ligra.EdgeMapFns{
		UpdateAtomic: func(ctx *core.Ctx, s, d uint32, w int32) bool {
			return parents.AtomicUpdate(ctx, d, pisc.OpUnsignedCompareSwap, pisc.Value(uint64(s)))
		},
		Update: func(ctx *core.Ctx, s, d uint32, w int32) bool {
			return parents.Update(ctx, d, pisc.OpUnsignedCompareSwap, pisc.Value(uint64(s)))
		},
		Cond: func(ctx *core.Ctx, d uint32) bool {
			return uint64(parents.Get(ctx, d)) == ^uint64(0)
		},
	}
	for !frontier.IsEmpty() {
		frontier = fw.EdgeMap(frontier, fns, mode)
	}
}

// growGraph adds growthPct% new edges by preferential attachment, biased
// toward *new* popular vertices so the hot set genuinely drifts.
func growGraph(g *graph.Graph, growthPct int, seed uint64) *graph.Graph {
	n := g.NumVertices()
	b := graph.NewBuilder(n, g.Undirected)
	for v := 0; v < n; v++ {
		for _, u := range g.OutNeighbors(graph.VertexID(v)) {
			if g.Undirected {
				if v <= int(u) {
					b.AddEdge(graph.VertexID(v), u, 1)
				}
			} else {
				b.AddEdge(graph.VertexID(v), u, 1)
			}
		}
	}
	extra := g.NumEdges() * growthPct / 100
	// New activity concentrates on a band of previously cold vertices
	// (IDs in the last quartile after the old ordering), so the stale
	// placement misses it.
	r := stats.NewRand(seed)
	bandLo := n * 3 / 4
	for i := 0; i < extra; i++ {
		src := graph.VertexID(r.Intn(n))
		dst := graph.VertexID(bandLo + r.Intn(n-bandLo))
		if src == dst {
			continue
		}
		b.AddEdge(src, dst, 1)
	}
	b.Dedup()
	ng := b.Build(g.Name + "+grown")
	return ng
}

// dynamicRun compares baseline and OMEGA on g and reports the speedup and
// the share of vtxProp accesses covered by the scratchpad-resident prefix.
func dynamicRun(spec algorithms.Spec, g *graph.Graph, o Options) (speedup, hotCoverage float64) {
	baseCfg, omCfg := core.ScaledPair(g.NumVertices(), spec.VtxPropBytes, o.Coverage)
	type result struct {
		st   core.MachineStats
		prof []uint64
	}
	res := runVariants(o,
		func() result {
			return result{st: spec.Run(ligra.New(o.newMachine(baseCfg, g.Name), g))}
		},
		func() result {
			mo := o.newMachine(omCfg, g.Name)
			mo.EnableVertexProfile(g.NumVertices())
			st := spec.Run(ligra.New(mo, g))
			return result{st: st, prof: mo.VertexProfile()}
		},
	)
	baseSt, omSt, prof := res[0].st, res[1].st, res[1].prof
	var hot, total uint64
	resident := omSt.SPResident
	for v, c := range prof {
		total += c
		if v < resident {
			hot += c
		}
	}
	if total > 0 {
		hotCoverage = float64(hot) / float64(total)
	}
	return omSt.Speedup(baseSt), hotCoverage
}
