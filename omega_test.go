package omega

import (
	"context"
	"strings"
	"testing"
	"time"

	"omega/internal/experiments"
)

func TestQuickstartFlow(t *testing.T) {
	g := RMAT(11, 42)
	g = ReorderByInDegree(g)
	cmp, err := Compare("PageRank", g, 0.20)
	if err != nil {
		t.Fatalf("compare: %v", err)
	}
	if cmp.Speedup() <= 1.0 {
		t.Fatalf("OMEGA should beat the baseline on a power-law graph: %.2fx", cmp.Speedup())
	}
	if cmp.EnergySaving() <= 1.0 {
		t.Fatalf("OMEGA should save energy: %.2fx", cmp.EnergySaving())
	}
	if cmp.TrafficReduction() <= 1.0 {
		t.Fatalf("OMEGA should reduce on-chip traffic: %.2fx", cmp.TrafficReduction())
	}
}

func TestCompareErrors(t *testing.T) {
	g := RMAT(8, 1)
	if _, err := Compare("NoSuchAlgo", g, 0.2); err == nil {
		t.Fatal("unknown algorithm should error")
	}
	if _, err := Compare("CC", g, 0.2); err == nil {
		t.Fatal("CC on a directed graph should error")
	}
}

func TestGraphHelpers(t *testing.T) {
	g := SocialGraph(2000, 7)
	s := Characterize(g)
	if !s.PowerLaw {
		t.Fatal("social graph should be power-law")
	}
	r := RoadGraph(32, 7)
	if Characterize(r).PowerLaw {
		t.Fatal("road graph should not be power-law")
	}
	if !r.Undirected {
		t.Fatal("road graph should be undirected")
	}
}

func TestLoadEdgeListFacade(t *testing.T) {
	g, err := LoadEdgeList(strings.NewReader("0 1\n1 2\n"), false, "x")
	if err != nil || g.NumVertices() != 3 {
		t.Fatalf("load: %v %v", g, err)
	}
}

func TestConfigsSameStorage(t *testing.T) {
	if BaselineConfig().TotalOnChipStorage() != OMEGAConfig().TotalOnChipStorage() {
		t.Fatal("paper machines must be same-sized")
	}
	g := RMAT(10, 3)
	b, o := ScaledConfigs(g, 8, 0.2)
	if b.TotalOnChipStorage() != o.TotalOnChipStorage() {
		t.Fatal("scaled machines must be same-sized")
	}
}

func TestAlgorithmRegistry(t *testing.T) {
	if len(Algorithms()) != 8 {
		t.Fatal("eight algorithms expected")
	}
	if _, ok := AlgorithmByName("Radii"); !ok {
		t.Fatal("Radii should resolve")
	}
}

func TestRunExperimentResolvesAllIDs(t *testing.T) {
	// Light smoke: run the cheapest experiments through the facade; check
	// the rest resolve (their heavy runs are covered by the scale-9 goldens
	// and perfbench's suite-s12 workload).
	for _, id := range []string{"Table III", "Table IV"} {
		tbl, err := RunExperiment(id, ExperimentOptions{Scale: 10})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s: empty table", id)
		}
		if !strings.Contains(tbl.Format(), tbl.ID) {
			t.Fatalf("%s: format missing ID", id)
		}
	}
	if _, err := RunExperiment("Figure 99", ExperimentOptions{}); err == nil {
		t.Fatal("unknown experiment should error")
	}
	if len(ExperimentIDs()) != 31 {
		t.Fatalf("expected 31 experiment IDs, got %d", len(ExperimentIDs()))
	}
}

// TestFacadeRegistryParity pins the facade to experiments.Registry():
// the ID list is the registry, in order, with no omissions (the
// hand-maintained map this replaced had already dropped Resilience R1)
// and every registered ID resolves through RunExperimentContext.
func TestFacadeRegistryParity(t *testing.T) {
	specs := experiments.Registry()
	ids := ExperimentIDs()
	if len(ids) != len(specs) {
		t.Fatalf("facade lists %d IDs, registry has %d", len(ids), len(specs))
	}
	for i, spec := range specs {
		if ids[i] != spec.ID {
			t.Fatalf("ID %d = %q, facade says %q", i, spec.ID, ids[i])
		}
	}
	found := false
	for _, id := range ids {
		if id == "Resilience R1" {
			found = true
		}
	}
	if !found {
		t.Fatal("Resilience R1 missing from the facade ID list")
	}
	// The context-aware entry point must honor ctx and the watchdog: a
	// cancelled context yields a Failed table, a live one a real result.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	tbl, err := RunExperimentContext(cancelled, "Table III", ExperimentOptions{Scale: 8})
	if err != nil || !tbl.Failed {
		t.Fatalf("cancelled run: table %+v, err %v; want a Failed table", tbl, err)
	}
	tbl, err = RunExperimentContext(context.Background(), "Table IV",
		ExperimentOptions{Scale: 8, Timeout: time.Minute})
	if err != nil || tbl.Failed || len(tbl.Rows) == 0 {
		t.Fatalf("live run: table %+v, err %v; want rows", tbl, err)
	}
}

// TestRunSuiteFacade runs the full parallel suite through the facade and
// checks it matches the sequential per-experiment path table for table.
func TestRunSuiteFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite skipped in -short mode")
	}
	opts := ExperimentOptions{Scale: 10, Parallelism: 4, Datasets: NewDatasetCache()}
	tables, summary := RunSuite(context.Background(), opts)
	if len(tables) != len(ExperimentIDs()) {
		t.Fatalf("suite returned %d tables, want %d", len(tables), len(ExperimentIDs()))
	}
	if summary == nil || len(summary.Rows) != len(tables) {
		t.Fatal("telemetry summary must carry one row per experiment")
	}
	for i, id := range ExperimentIDs() {
		if tables[i].Failed {
			t.Fatalf("%s failed: %s", id, tables[i].Title)
		}
		seq, err := RunExperiment(id, ExperimentOptions{Scale: 10, Datasets: opts.Datasets})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if seq.Format() != tables[i].Format() {
			t.Fatalf("%s: parallel suite table differs from sequential facade run", id)
		}
	}
}

func TestAllExperimentsRunnable(t *testing.T) {
	// Integration sweep: every registered experiment must produce a
	// non-empty table at a tiny scale. Guarded by -short for quick edits.
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	for _, id := range ExperimentIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tbl, err := RunExperiment(id, ExperimentOptions{Scale: 10})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s: no rows", id)
			}
			if tbl.Format() == "" || tbl.TSV() == "" {
				t.Fatalf("%s: rendering failed", id)
			}
		})
	}
}

func TestMachineFacade(t *testing.T) {
	g := ReorderByInDegree(RMAT(9, 5))
	_, oCfg := ScaledConfigs(g, 8, 0.2)
	m := NewMachine(oCfg)
	fw := NewFramework(m, g)
	if fw.NumVertices() != g.NumVertices() {
		t.Fatal("framework binding broken")
	}
	if !m.HasScratchpads() {
		t.Fatal("OMEGA machine should have scratchpads")
	}
}
