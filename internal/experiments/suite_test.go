package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"omega/internal/graph/datasets"
	"omega/internal/obs"
)

// renderAll formats every table into one byte stream for comparison.
func renderAll(tables []*Table) string {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.Format())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSuiteDeterminism is the acceptance gate of the parallel harness:
// a parallel cached run, a sequential cached run, and a fresh sequential
// run with no cache at all must emit byte-identical experiment tables.
func TestSuiteDeterminism(t *testing.T) {
	o := Options{Scale: 10, Seed: 42, Coverage: 0.20}

	// One comparison proves both properties at once: the reference is
	// sequential AND uncached, the candidate parallel AND cached, so
	// byte-identical output means neither the pool nor the cache can
	// perturb any table.
	fresh := o
	fresh.Parallelism = 1
	fresh.Datasets = nil // explicit: every runner generates from scratch
	freshRun := Suite(context.Background(), Registry(), fresh, nil)

	par := o
	par.Parallelism = 8
	par.Datasets = datasets.New()
	parRun := Suite(context.Background(), Registry(), par, nil)

	freshOut := renderAll(freshRun.Tables)
	if got := renderAll(parRun.Tables); got != freshOut {
		t.Fatal("parallel cached run differs from sequential fresh run")
	}
	if freshRun.Failed() != 0 {
		t.Fatalf("%d experiments failed", freshRun.Failed())
	}
	// The cached runs must actually share graphs: the suite asks for far
	// more datasets than there are distinct (kind, scale, seed, variant)
	// tuples at a fixed option set.
	hits, misses := par.Datasets.Stats()
	if hits == 0 {
		t.Fatalf("parallel suite recorded no cache hits (%d misses)", misses)
	}
	if misses == 0 || int(misses) != par.Datasets.Len() {
		t.Fatalf("misses %d should equal resident graphs %d", misses, par.Datasets.Len())
	}
}

// TestSuiteOrderAndTelemetry checks results come back in registry order
// with one telemetry record per experiment and a rendered summary.
func TestSuiteOrderAndTelemetry(t *testing.T) {
	specs := []Spec{
		{"Table III", Table3},
		{"Table IV", Table4},
		{"Table I", Table1},
	}
	o := Options{Scale: 9, Parallelism: 4}
	res := Suite(context.Background(), specs, o, nil)
	if len(res.Tables) != len(specs) || len(res.Telemetry) != len(specs) {
		t.Fatalf("result sizes %d/%d, want %d", len(res.Tables), len(res.Telemetry), len(specs))
	}
	for i, spec := range specs {
		if res.Telemetry[i].ID != spec.ID {
			t.Fatalf("telemetry[%d] = %q, want %q", i, res.Telemetry[i].ID, spec.ID)
		}
		if !strings.HasPrefix(res.Tables[i].ID, spec.ID) {
			t.Fatalf("tables[%d] = %q, want prefix %q", i, res.Tables[i].ID, spec.ID)
		}
	}
	if res.Summary == nil || len(res.Summary.Rows) != len(specs) {
		t.Fatal("summary table must carry one row per experiment")
	}
	for _, want := range []string{"scale 9, seed 42, coverage 0.20;", "dataset cache", "cell cache"} {
		if !strings.Contains(res.Summary.Format(), want) {
			t.Fatalf("summary missing %q:\n%s", want, res.Summary.Format())
		}
	}
	if res.Parallelism != 3 {
		t.Fatalf("parallelism %d should clamp to the spec count 3", res.Parallelism)
	}
}

// TestSuiteProgressEvents checks every experiment reports exactly once
// with its completed table.
func TestSuiteProgressEvents(t *testing.T) {
	specs := []Spec{{"Table III", Table3}, {"Table IV", Table4}}
	seen := map[string]*Table{}
	res := Suite(context.Background(), specs, Options{Scale: 9, Parallelism: 2},
		func(ev SuiteEvent) {
			if ev.Total != len(specs) {
				t.Errorf("event total %d, want %d", ev.Total, len(specs))
			}
			seen[ev.ID] = ev.Table
		})
	if len(seen) != len(specs) {
		t.Fatalf("saw %d events, want %d", len(seen), len(specs))
	}
	for i, spec := range specs {
		if seen[spec.ID] != res.Tables[i] {
			t.Fatalf("event table for %s is not the result table", spec.ID)
		}
	}
}

// TestSuiteCancellation checks a cancelled context fails experiments
// fast instead of running them, and that each still leaves its failure
// marker in the metric stream: one harness "failed" sample per spec.
func TestSuiteCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	buf := obs.NewBuffer()
	res := Suite(ctx, Registry(), Options{Scale: 9, Parallelism: 2, Metrics: buf}, nil)
	if res.Failed() != len(res.Tables) {
		t.Fatalf("%d of %d failed; a cancelled suite must fail everything",
			res.Failed(), len(res.Tables))
	}
	for _, tbl := range res.Tables {
		if !strings.Contains(tbl.Title, "cancelled") {
			t.Fatalf("table %s not marked cancelled: %s", tbl.ID, tbl.Title)
		}
	}
	failed := map[string]int{}
	for _, s := range buf.Drain() {
		if s.Machine == "harness" && s.Name == "failed" {
			failed[s.Experiment]++
		}
	}
	for _, spec := range Registry() {
		if failed[spec.ID] != 1 {
			t.Fatalf("%s: %d harness failed samples, want 1", spec.ID, failed[spec.ID])
		}
	}
}

// TestSuiteSummaryCellNote checks the summary's cell-cache note carries
// the whole cell-cache breakdown: built, replayed, singleflight-shared,
// resident, the duplicate-cell rate and the campaign bypass count.
func TestSuiteSummaryCellNote(t *testing.T) {
	cells := NewCellCache()
	build := func() Cell { return Cell{} }
	for _, w := range []string{"a", "b", "c", "a", "a"} {
		cells.getOrRun(CellKey{Workload: w}, build)
	}
	cells.dedups.Add(1)
	cells.noteCampaign(9)
	o := Options{Datasets: datasets.New(), Cells: cells}.Defaults()
	sum := suiteSummary(&SuiteResult{Parallelism: 1}, o)
	note := sum.Notes[len(sum.Notes)-1]
	for _, want := range []string{
		"3 built", "2 replayed", "1 singleflight-shared", "3 cells resident",
		"duplicate-cell rate 50.0%", "uncacheable: campaign=9",
	} {
		if !strings.Contains(note, want) {
			t.Fatalf("cell-cache note %q missing %q", note, want)
		}
	}
}

// TestSuitePanicIsolated checks one panicking runner yields a Failed
// table while the rest of the suite completes.
func TestSuitePanicIsolated(t *testing.T) {
	specs := []Spec{
		{"Boom", func(Options) *Table { panic("kaput") }},
		{"Table III", Table3},
	}
	res := Suite(context.Background(), specs, Options{Scale: 9, Parallelism: 2}, nil)
	if !res.Tables[0].Failed || !strings.Contains(res.Tables[0].Title, "panicked") {
		t.Fatalf("panicking runner not captured: %+v", res.Tables[0])
	}
	if res.Tables[1].Failed {
		t.Fatal("healthy runner must survive a sibling panic")
	}
	if res.Failed() != 1 {
		t.Fatalf("failed = %d, want 1", res.Failed())
	}
}

// TestSuiteWatchdog checks o.Timeout is threaded through to RunSafe.
func TestSuiteWatchdog(t *testing.T) {
	hang := make(chan struct{})
	defer close(hang)
	specs := []Spec{{"Hang", func(Options) *Table { <-hang; return &Table{ID: "Hang"} }}}
	o := Options{Scale: 9, Parallelism: 1, Timeout: 20 * time.Millisecond}
	res := Suite(context.Background(), specs, o, nil)
	if !res.Tables[0].Failed || !strings.Contains(res.Tables[0].Title, "watchdog") {
		t.Fatalf("hung runner not reaped: %+v", res.Tables[0])
	}
}

// TestPreparedDatasetSharing checks prepareDataset actually shares one
// graph instance through the cache across distinct runner option copies.
func TestPreparedDatasetSharing(t *testing.T) {
	o := Options{Scale: 9, Seed: 42, Coverage: 0.20, Datasets: datasets.New()}.Defaults()
	a := prepareDataset(mustDataset("rmat"), o, false)
	b := prepareDataset(mustDataset("rmat"), o, false)
	if a.g != b.g {
		t.Fatal("same tuple must share one graph instance")
	}
	w := prepareDataset(mustDataset("rmat"), o, true)
	if w.g == a.g {
		t.Fatal("weighted variant must not alias the unweighted graph")
	}
	raw := rawDataset(mustDataset("rmat"), o, false)
	if raw == a.g {
		t.Fatal("raw variant must not alias the reordered graph")
	}
	so := o
	so.Seed++
	if s := prepareDataset(mustDataset("rmat"), so, false); s.g == a.g {
		t.Fatal("different seed must not share a graph")
	}
	if a.g.Name != "rmat" {
		t.Fatalf("cached graph name %q, want rmat", a.g.Name)
	}
}
