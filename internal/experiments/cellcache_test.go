package experiments

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"omega/internal/algorithms"
	"omega/internal/core"
	"omega/internal/graph"
	"omega/internal/ligra"
	"omega/internal/obs"
)

// TestCellSingleflight pins the dedup contract under -race: N
// goroutines requesting the same not-yet-built cell must trigger
// exactly one build, with every other request blocking on the in-flight
// builder and sharing its result.
func TestCellSingleflight(t *testing.T) {
	c := NewCellCache()
	key := CellKey{Workload: "w"}
	var builds atomic.Uint64
	release := make(chan struct{})
	const n = 16
	cells := make([]Cell, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cells[i], _ = c.getOrRun(key, func() Cell {
				builds.Add(1)
				<-release // hold every other goroutine in the dedup path
				return Cell{Stats: core.MachineStats{Cycles: 42}}
			})
		}()
	}
	// Let the non-builders reach the wait before releasing the build, so
	// the dedup path is actually exercised (not just sequential hits).
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("builds=%d misses=%d, want exactly one build", builds.Load(), st.Misses)
	}
	if st.Hits+st.Dedups != n-1 {
		t.Fatalf("hits=%d dedups=%d, want %d shared requests", st.Hits, st.Dedups, n-1)
	}
	for i, cell := range cells {
		if cell.Stats.Cycles != 42 {
			t.Fatalf("goroutine %d got stats %+v, want the shared build", i, cell.Stats)
		}
	}
	if st.Resident != 1 {
		t.Fatalf("resident=%d, want 1", st.Resident)
	}
}

// TestCellBuildPanicLeavesKeyRebuildable pins the failure contract: a
// builder panic evicts the entry (the key stays rebuildable) and
// concurrent waiters retry instead of sharing the panic — one of them
// becomes the next builder.
func TestCellBuildPanicLeavesKeyRebuildable(t *testing.T) {
	c := NewCellCache()
	key := CellKey{Workload: "w"}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("builder panic did not propagate")
			}
		}()
		c.getOrRun(key, func() Cell { panic("boom") })
	}()
	if c.Len() != 0 {
		t.Fatalf("failed build left %d entries resident", c.Len())
	}

	// Concurrent waiters on a panicking builder must retry; exactly one
	// retry rebuilds, the rest share it.
	var builds atomic.Uint64
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { recover() }()
		c.getOrRun(key, func() Cell {
			close(started)
			time.Sleep(10 * time.Millisecond) // let waiters pile up
			panic("boom")
		})
	}()
	<-started
	const n = 4
	cells := make([]Cell, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cells[i], _ = c.getOrRun(key, func() Cell {
				builds.Add(1)
				return Cell{Stats: core.MachineStats{Cycles: 7}}
			})
		}()
	}
	wg.Wait()
	if b := builds.Load(); b != 1 {
		t.Fatalf("rebuilds=%d, want exactly one after the failed build", b)
	}
	for i, cell := range cells {
		if cell.Stats.Cycles != 7 {
			t.Fatalf("waiter %d got %+v, want the retried build", i, cell.Stats)
		}
	}
}

// TestCellKeySeparatesConfigs pins the cell identity: requests whose
// configs differ in one field — top-level, the nested fault seed, the
// machine name — build separate cells, and an equal config shares
// the first one's cell.
func TestCellKeySeparatesConfigs(t *testing.T) {
	cells := NewCellCache()
	o := Options{Scale: 8, Seed: 42, Cells: cells}.Defaults()
	spec, _ := algorithms.ByName("PageRank")
	pr := prepareDataset(mustDataset("rmat"), o, false)
	base, _ := core.ScaledPair(pr.g.NumVertices(), spec.VtxPropBytes, o.Coverage)
	mutations := map[string]func(*core.Config){
		"Faults.Seed":       func(c *core.Config) { c.Faults.Seed = 99 },
		"ClosePage":         func(c *core.Config) { c.ClosePage = !c.ClosePage },
		"DisableLineBuffer": func(c *core.Config) { c.DisableLineBuffer = true },
		"Name":              func(c *core.Config) { c.Name = "other" },
	}
	cellFor(o, spec.Name, pr, base, "base")
	for name, mut := range mutations {
		cfg := base
		mut(&cfg)
		before := cells.Stats().Misses
		cellFor(o, spec.Name, pr, cfg, name)
		if cells.Stats().Misses != before+1 {
			t.Errorf("config differing in %s shared a cell", name)
		}
	}
	cellFor(o, spec.Name, pr, base, "same")
	st := cells.Stats()
	if st.Misses != 1+uint64(len(mutations)) || st.Hits != 1 {
		t.Errorf("built %d, replayed %d; want %d built and the equal config replayed",
			st.Misses, st.Hits, 1+len(mutations))
	}
}

// TestGoldenBitIdentityWithCellCache re-runs the full registry with one
// shared cell cache and compares every table byte-for-byte against the
// same goldens the uncached test uses. This pins the tentpole contract:
// cached and replayed cells are indistinguishable from fresh
// simulations, and the sharing must actually occur (hits > 0).
func TestGoldenBitIdentityWithCellCache(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite golden comparison skipped in -short mode")
	}
	cells := NewCellCache()
	opts := Options{Scale: 9, Seed: 42, Coverage: 0.20, Cells: cells}
	for _, spec := range Registry() {
		spec := spec
		t.Run(strings.ReplaceAll(spec.ID, " ", "_"), func(t *testing.T) {
			name := strings.ReplaceAll(strings.ToLower(spec.ID), " ", "_") + ".tsv"
			path := filepath.Join("testdata", "golden-scale9-seed42", name)
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s: %v", path, err)
			}
			tbl := spec.Run(opts)
			if tbl == nil {
				t.Fatal("experiment returned nil table")
			}
			if tbl.Failed {
				t.Fatalf("experiment failed: %s", tbl.Title)
			}
			if got := tbl.TSV(); got != string(want) {
				t.Errorf("output diverged from golden %s with cell cache enabled\ngot:\n%s\nwant:\n%s",
					path, got, want)
			}
		})
	}
	st := cells.Stats()
	if st.Hits == 0 {
		t.Errorf("cell cache saw no hits across the registry; stats %+v", st)
	}
	if st.Misses == 0 {
		t.Errorf("cell cache saw no builds; stats %+v", st)
	}
	t.Logf("cell cache across registry: %d hits / %d misses (%d dedup), %d resident, duplicate rate %.1f%%, campaign bypasses %d",
		st.Hits, st.Misses, st.Dedups, st.Resident, 100*st.DuplicateRate(), st.Campaign)
}

// TestGoldenMetricsWithCellCache pins the replay contract for metric
// streams: with a shared cell cache, tables and metric streams must
// match the goldens and pinned digests even when a spec's cells replay
// from another experiment's build (the subset includes Figure 3 and
// Figure 14, which share rmat baseline cells under different
// run-labeling conventions).
func TestGoldenMetricsWithCellCache(t *testing.T) {
	if testing.Short() {
		t.Skip("golden comparison skipped in -short mode")
	}
	cells := NewCellCache()
	for _, id := range metricsGoldenSpecs {
		spec, ok := SpecByID(id)
		if !ok {
			t.Fatalf("unknown spec %q", id)
		}
		t.Run(strings.ReplaceAll(id, " ", "_"), func(t *testing.T) {
			name := strings.ReplaceAll(strings.ToLower(id), " ", "_") + ".tsv"
			path := filepath.Join("testdata", "golden-scale9-seed42", name)
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s: %v", path, err)
			}
			buf := obs.NewBuffer()
			opts := Options{Scale: 9, Seed: 42, Coverage: 0.20, Metrics: buf, Cells: cells}
			tbl := RunSafe(context.Background(), spec, opts, 0)
			if tbl.Failed {
				t.Fatalf("experiment failed: %s", tbl.Title)
			}
			if got := tbl.TSV(); got != string(want) {
				t.Errorf("output diverged from golden %s with cell cache + metrics\ngot:\n%s\nwant:\n%s",
					path, got, want)
			}
			checkMetricsDigest(t, id, buf.Drain())
		})
	}
	st := cells.Stats()
	if st.Hits == 0 {
		t.Errorf("metrics subset produced no cell hits (Figure 3 / Figure 14 should share); stats %+v", st)
	}
	if st.Campaign != 0 {
		t.Errorf("metrics subset bypassed the cache: %d campaign runs", st.Campaign)
	}
}

// TestSuiteCellCacheEquivalence pins the cached suite against the
// uncached reference: each runner called through RunSafe with Cells nil
// re-simulates every cell, and the cached Suite must produce identical
// tables while actually sharing cells.
func TestSuiteCellCacheEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run suite comparison skipped in -short mode")
	}
	var specs []Spec
	for _, id := range []string{"Figure 3", "Figure 4b", "Figure 5", "Figure 14", "Figure 19"} {
		spec, ok := SpecByID(id)
		if !ok {
			t.Fatalf("unknown spec %q", id)
		}
		specs = append(specs, spec)
	}
	opts := Options{Scale: 9, Seed: 42, Coverage: 0.20, Parallelism: 2}
	cres := Suite(context.Background(), specs, opts, nil)
	if n := cres.Failed(); n > 0 {
		t.Fatalf("cached suite: %d experiments failed", n)
	}
	for i, spec := range specs {
		direct := RunSafe(context.Background(), spec, opts, 0)
		if direct.Failed {
			t.Fatalf("uncached %s failed: %s", spec.ID, direct.Title)
		}
		if cres.Tables[i].TSV() != direct.TSV() {
			t.Errorf("%s diverged between the cached suite and an uncached run", spec.ID)
		}
	}
	if cres.Cells == nil {
		t.Fatal("default suite did not install a cell cache")
	}
	if st := cres.Cells.Stats(); st.Hits+st.Dedups == 0 {
		t.Errorf("default suite saw no cell sharing; stats %+v", st)
	}
	var cellTotal uint64
	for _, te := range cres.Telemetry {
		cellTotal += te.Cells
	}
	if cellTotal == 0 {
		t.Error("telemetry recorded no cells for the cached suite")
	}
}

// TestSkewFiguresReplayBaselineCells pins the sharing the skew figures
// rely on: after Figure 14 on one cell cache, every cell Figure 4b and
// Figure 5 ask for is a replay (they add no builds), and a cached
// cell's TopShare is the share a hand-built profiled baseline run
// measures.
func TestSkewFiguresReplayBaselineCells(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run suite comparison skipped in -short mode")
	}
	var specs []Spec
	for _, id := range []string{"Figure 14", "Figure 4b", "Figure 5"} {
		spec, ok := SpecByID(id)
		if !ok {
			t.Fatalf("unknown spec %q", id)
		}
		specs = append(specs, spec)
	}
	cells := NewCellCache()
	opts := Options{Scale: 9, Seed: 42, Coverage: 0.20, Parallelism: 1, Cells: cells}
	res := Suite(context.Background(), specs, opts, nil)
	if n := res.Failed(); n > 0 {
		t.Fatalf("suite: %d experiments failed", n)
	}
	f14 := res.Telemetry[0]
	for _, te := range res.Telemetry[1:] {
		if te.Cells == 0 || te.CellHits != te.Cells {
			t.Errorf("%s: %d of %d cells replayed, want all of a nonzero count", te.ID, te.CellHits, te.Cells)
		}
	}
	if st := cells.Stats(); st.Misses != f14.Cells-f14.CellHits {
		t.Errorf("cells built = %d, want Figure 14's %d", st.Misses, f14.Cells-f14.CellHits)
	}

	spec, _ := algorithms.ByName("PageRank")
	o := opts.Defaults()
	pr := prepareDataset(mustDataset("rmat"), o, false)
	bCfg, _ := core.ScaledPair(pr.g.NumVertices(), spec.VtxPropBytes, o.Coverage)
	cells.mu.Lock()
	e := cells.entries[CellKey{Config: bCfg, Dataset: pr.key, Workload: spec.Name}]
	cells.mu.Unlock()
	if e == nil || !e.ok {
		t.Fatal("PageRank/rmat baseline cell not resident")
	}
	m := core.NewMachine(bCfg)
	m.EnableVertexProfile(pr.g.NumVertices())
	st := spec.Run(ligra.New(m, pr.g))
	want := graph.AccessShareToTopK(pr.g, m.VertexProfile(), 0.20)
	if want <= 0 || e.cell.TopShare != want {
		t.Errorf("cached TopShare = %v, hand-built profiled run = %v", e.cell.TopShare, want)
	}
	if !reflect.DeepEqual(e.cell.Stats, st) {
		t.Error("cached stats differ from the hand-built profiled run")
	}
}

// encodeTSV renders samples through the TSV writer for stream
// comparison.
func encodeTSV(t *testing.T, samples []obs.MetricSample) string {
	t.Helper()
	var sb strings.Builder
	w := obs.NewTSVWriter(&sb)
	for _, s := range samples {
		w.Sample(s)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
