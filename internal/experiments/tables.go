package experiments

import (
	"fmt"

	"omega/internal/algorithms"
	"omega/internal/core"
	"omega/internal/graph"
	"omega/internal/power"
)

// Table1 reproduces Table I: dataset characterization — vertex/edge
// counts, directedness, top-20 % in/out-degree connectivity, and the
// power-law classification.
func Table1(o Options) *Table {
	o = o.Defaults()
	t := &Table{
		ID:    "Table I",
		Title: "graph dataset characterization (synthetic stand-ins)",
		Header: []string{"dataset", "stands-for", "#vertices", "#edges", "type",
			"in-deg con.%", "out-deg con.%", "power law"},
	}
	dss := StandardDatasets()
	fns := make([]func() graph.DegreeStats, len(dss))
	for i, ds := range dss {
		fns[i] = func() graph.DegreeStats {
			return graph.ComputeDegreeStats(rawDataset(ds, o, false))
		}
	}
	for i, s := range runVariants(o, fns...) {
		ds := dss[i]
		typ := "dir."
		if s.Undirected {
			typ = "undir."
		}
		pl := "no"
		if s.PowerLaw {
			pl = "yes"
		}
		t.AddRow(ds.Name, ds.StandsFor, s.NumVertices, s.NumEdges, typ,
			s.InDegreeConnectivity, s.OutDegreeConnectivity, pl)
		if s.PowerLaw != ds.PowerLaw {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s classified power-law=%v, expected %v", ds.Name, s.PowerLaw, ds.PowerLaw))
		}
	}
	t.Notes = append(t.Notes,
		"paper: power-law sets have in-degree connectivity 58-100%, road sets ~29%")
	return t
}

// Table2 reproduces Table II: algorithm characterization, with the
// qualitative %atomic / %random columns re-measured from instrumented
// runs rather than asserted.
func Table2(o Options) *Table {
	o = o.Defaults()
	t := &Table{
		ID:    "Table II",
		Title: "graph-based algorithm characterization (measured)",
		Header: []string{"algorithm", "atomic op", "%atomic", "%random",
			"entry B", "#vtxProp", "active-list", "reads src"},
	}
	dir := prepareDataset(mustDataset("rmat"), o, false)
	dirW := prepareDataset(mustDataset("rmat"), o, true)
	undir := prepareDataset(mustDataset("apu"), o, false)
	specs := algorithms.All()
	fns := make([]func() core.MachineStats, len(specs))
	for i, spec := range specs {
		p := dir
		switch {
		case spec.NeedsUndirected:
			p = undir
		case spec.Name == "SSSP":
			p = dirW
		}
		fns[i] = func() core.MachineStats {
			_, omCfg := core.ScaledPair(p.g.NumVertices(), spec.VtxPropBytes, o.Coverage)
			return runCell(o, spec.Name, p, omCfg, p.g.Name)
		}
	}
	for i, st := range runVariants(o, fns...) {
		spec := specs[i]
		total := float64(st.TotalAccesses())
		atomicPct := 100 * float64(st.Atomics) / total
		randomPct := 100 * float64(st.AccessesByKind[0]) / total // vtxProp
		al := "no"
		if spec.ActiveList {
			al = "yes"
		}
		rs := "no"
		if spec.ReadsSrc {
			rs = "yes"
		}
		t.AddRow(spec.Name, spec.AtomicOp,
			fmt.Sprintf("%.1f (%s)", atomicPct, spec.AtomicIntensity),
			fmt.Sprintf("%.1f (%s)", randomPct, spec.RandomIntensity),
			spec.VtxPropBytes, spec.NumProps, al, rs)
	}
	t.Notes = append(t.Notes,
		"qualitative labels in parentheses are the paper's Table II rows")
	return t
}

// Table3 reproduces Table III: the experimental testbed configuration of
// both machines, at full (paper) size and at the scaled size used for a
// given option set.
func Table3(o Options) *Table {
	o = o.Defaults()
	t := &Table{
		ID:     "Table III",
		Title:  "experimental testbed setup",
		Header: []string{"machine", "cores", "L1D/core", "L2/core", "SP/core", "PISC", "SP gran."},
	}
	kb := func(bytes int) string {
		if bytes == 0 {
			return "-"
		}
		if bytes < 1<<10 {
			return fmt.Sprintf("%d B", bytes)
		}
		return fmt.Sprintf("%d KB", bytes>>10)
	}
	add := func(tag string, cfg core.Config) {
		gran := "-"
		if cfg.SPBytesPerCore > 0 {
			gran = "1-8 B"
		}
		t.AddRow(tag+cfg.Name, cfg.NumCores,
			kb(cfg.L1Bytes), kb(cfg.L2BytesPerCore), kb(cfg.SPBytesPerCore),
			cfg.PISC, gran)
	}
	add("paper/", core.Baseline())
	add("paper/", core.OMEGA())
	b, om := core.ScaledPair(1<<o.Scale, 8, o.Coverage)
	add("scaled/", b)
	add("scaled/", om)
	t.Notes = append(t.Notes,
		"common: 2GHz 8-wide OoO, 192-entry ROB, 64B lines, MESI, 4xDDR3-1600, crossbar 128-bit",
		"scaled rows: on-chip storage sized to the generated dataset per DESIGN.md §3")
	return t
}

// Table4 reproduces Table IV: peak power and area per node for both
// machines at the paper's full-size configuration.
func Table4(o Options) *Table {
	t := &Table{
		ID:     "Table IV",
		Title:  "peak power and area for a CMP and OMEGA node (45nm)",
		Header: []string{"component", "baseline W", "baseline mm2", "omega W", "omega mm2"},
	}
	base := power.Budget(core.Baseline())
	om := power.Budget(core.OMEGA())
	find := func(b power.NodeBudget, name string) (power.Component, bool) {
		for _, c := range b.Components {
			if c.Name == name {
				return c, true
			}
		}
		return power.Component{}, false
	}
	for _, name := range []string{"Core", "L1 caches", "Scratchpad", "PISC", "L2 cache"} {
		bc, bok := find(base, name)
		oc, ook := find(om, name)
		row := []string{name, "N/A", "N/A", "N/A", "N/A"}
		if bok {
			row[1] = fmt.Sprintf("%.2f", bc.PowerW)
			row[2] = fmt.Sprintf("%.2f", bc.AreaMM2)
		}
		if ook {
			row[3] = fmt.Sprintf("%.3f", oc.PowerW)
			row[4] = fmt.Sprintf("%.2f", oc.AreaMM2)
		}
		t.Rows = append(t.Rows, row)
	}
	t.AddRow("Node total",
		base.TotalPower(), base.TotalArea(), om.TotalPower(), om.TotalArea())
	t.Notes = append(t.Notes,
		fmt.Sprintf("paper: baseline 6.17 W / 32.91 mm2, OMEGA 6.21 W / 32.15 mm2 "+
			"(measured: %.2f W / %.2f mm2 vs %.2f W / %.2f mm2)",
			base.TotalPower(), base.TotalArea(), om.TotalPower(), om.TotalArea()))
	return t
}

func mustDataset(name string) Dataset {
	d, ok := DatasetByName(name)
	if !ok {
		panic("experiments: unknown dataset " + name)
	}
	return d
}
