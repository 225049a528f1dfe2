// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Each runner
// returns a structured Table whose rows mirror what the paper reports;
// cmd/omega-bench prints them all.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"omega/internal/core"
	"omega/internal/graph"
	"omega/internal/graph/datasets"
	"omega/internal/graph/gen"
	"omega/internal/graph/reorder"
	"omega/internal/obs"
)

// Options configures an experiment run.
type Options struct {
	// Scale is log2 of the vertex count for generated datasets. The
	// default (13) keeps the full suite under a minute; raise it for
	// closer-to-paper regimes.
	Scale int
	// Seed drives all generators.
	Seed uint64
	// Coverage is the scratchpad sizing fraction (0.20 in the paper).
	Coverage float64
	// FaultSeed is the base seed of the resilience campaigns' fault
	// streams (the sweep runs FaultSeed, FaultSeed+1, ... so the outcome
	// histogram sees independent fault placements). It is deliberately
	// separate from Seed, which drives dataset generation.
	FaultSeed uint64
	// Parallelism bounds the Suite worker pool. Zero means GOMAXPROCS; 1
	// forces sequential execution. Individual runners ignore it — an
	// experiment is always one deterministic single-goroutine simulation.
	Parallelism int
	// Timeout is the per-experiment watchdog applied by Suite and the
	// context-aware facade entry points. Zero disables the watchdog.
	Timeout time.Duration
	// Datasets memoizes graph construction across runners so experiments
	// sharing a (generator, scale, seed, reorder) tuple build the graph
	// once. Nil means every runner generates its graphs from scratch.
	Datasets *datasets.Cache
	// Cells memoizes complete simulation cells — (machine config,
	// dataset, workload) triples — across runners, the dataset cache's
	// idea lifted to whole machine simulations (DESIGN.md §12). The
	// simulator is deterministic, so a cached cell's stats and metric
	// stream are exactly what a fresh run would produce. Nil disables
	// cell caching for a direct runner call; Suite installs a fresh cache
	// when it is nil.
	Cells *CellCache
	// Metrics, when set, receives the per-iteration metric samples of
	// every machine the experiments build, stamped with the experiment ID
	// and a run label (dataset or algorithm/dataset). Samples arrive
	// canonically sorted per experiment and in suite (spec) order under
	// Suite, so parallel and sequential runs emit byte-identical series.
	// Observation is read-only: tables are bit-identical with or without
	// a sink. Nil (the default) disables metrics entirely.
	Metrics obs.Sink
	// serialVariants disables the per-variant goroutine fan-out inside
	// individual runners (see runVariants), forcing machine variants to
	// execute one after another on the runner goroutine. Tables are
	// identical either way; tests set it to compare the two schedules.
	serialVariants bool
	// tally, when set by Suite, receives this run's dataset-cache and
	// cell traffic so telemetry can attribute it per experiment.
	tally *runTally
	// ctx, when set by RunSafe, is the harness's cancellation context:
	// runners attach it to the machines they build so watchdog timeouts
	// and SIGINT cancel in-flight simulations cooperatively instead of
	// abandoning the goroutines driving them. Nil behaves like a context
	// that is never cancelled.
	ctx context.Context
	// sink, when set by RunSafe, is the per-experiment sample buffer the
	// run's machines emit into (thread-safe: variant goroutines share
	// it). RunSafe drains it, sorts canonically, stamps the experiment
	// ID, and replays into Metrics — the determinism contract above.
	sink obs.Sink
}

// Context returns the harness cancellation context, never nil.
func (o Options) Context() context.Context {
	if o.ctx == nil {
		return context.Background()
	}
	return o.ctx
}

// Defaults fills zero values. The zero-value contract for the suite
// fields is: Parallelism 0 = GOMAXPROCS (resolved by Suite, never stored
// here so an explicit 1 stays distinguishable), Timeout 0 = no watchdog,
// Datasets nil = no cross-runner caching — i.e. a zero Options behaves
// exactly like the pre-Suite harness.
func (o Options) Defaults() Options {
	if o.Scale == 0 {
		o.Scale = 13
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Coverage == 0 {
		o.Coverage = 0.20
	}
	if o.FaultSeed == 0 {
		o.FaultSeed = 1
	}
	return o
}

// Table is a formatted experiment result.
type Table struct {
	// ID is the paper artifact ("Table I", "Figure 14", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Header names the columns.
	Header []string
	// Rows are the data rows.
	Rows [][]string
	// Notes carries the paper-vs-measured commentary.
	Notes []string
	// Failed marks a table produced by the harness in place of a runner
	// that panicked, hung past its watchdog, or was cancelled; the Rows
	// then carry the diagnostics instead of results.
	Failed bool
}

// AddRow appends a row built from values via fmt.Sprint.
func (t *Table) AddRow(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", x)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	// Column widths consider header and row cells alike — and rows may be
	// wider than the header (resilience tables append diagnostic cells),
	// so the width vector grows to the widest row.
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			for i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Chart renders one numeric column as an ASCII bar chart, labeled by the
// first column — a terminal rendition of the paper's bar figures.
func (t *Table) Chart(col int, width int) string {
	if width <= 0 {
		width = 40
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s (column %q) ==\n", t.ID, t.Title, t.Header[min(col, len(t.Header)-1)])
	maxV := 0.0
	vals := make([]float64, len(t.Rows))
	for i, r := range t.Rows {
		if col >= len(r) {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(r[col], "%"), 64)
		if err != nil {
			continue
		}
		vals[i] = v
		if v > maxV {
			maxV = v
		}
	}
	if maxV == 0 {
		return b.String()
	}
	labelW := 0
	for _, r := range t.Rows {
		if len(r[0]) > labelW {
			labelW = len(r[0])
		}
	}
	for i, r := range t.Rows {
		bar := int(vals[i] / maxV * float64(width))
		fmt.Fprintf(&b, "%-*s %8.2f %s\n", labelW, r[0], vals[i], strings.Repeat("#", bar))
	}
	return b.String()
}

// JSON renders the table as a JSON object with id, title, header, rows,
// and notes — for downstream tooling.
func (t *Table) JSON() ([]byte, error) {
	return json.MarshalIndent(struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes,omitempty"`
		Failed bool       `json:"failed,omitempty"`
	}{t.ID, t.Title, t.Header, t.Rows, t.Notes, t.Failed}, "", "  ")
}

// TSV renders the table as tab-separated values.
func (t *Table) TSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, "\t") + "\n")
	for _, r := range t.Rows {
		b.WriteString(strings.Join(r, "\t") + "\n")
	}
	return b.String()
}

// Dataset is a synthetic stand-in for one of the paper's Table I datasets.
type Dataset struct {
	// Name is the short label used in figures.
	Name string
	// StandsFor names the paper dataset(s) this replaces.
	StandsFor string
	// Undirected marks symmetric graphs.
	Undirected bool
	// PowerLaw is the expected classification.
	PowerLaw bool
	// Build generates the graph (weighted if asked).
	Build func(o Options, weighted bool) *graph.Graph
}

// StandardDatasets returns the dataset pool mirroring Table I's mix of
// small/large, directed/undirected, power-law/non-power-law graphs.
func StandardDatasets() []Dataset {
	return []Dataset{
		{
			Name: "rmat", StandsFor: "rMat", PowerLaw: true,
			Build: func(o Options, w bool) *graph.Graph {
				cfg := gen.DefaultRMAT(o.Scale, o.Seed)
				cfg.Weighted = w
				return gen.RMAT(cfg)
			},
		},
		{
			Name: "social", StandsFor: "lj / orkut / wiki", PowerLaw: true,
			Build: func(o Options, w bool) *graph.Graph {
				return gen.BarabasiAlbert(gen.BAConfig{
					NumVertices:      1 << o.Scale,
					EdgesPerVertex:   12,
					Seed:             o.Seed + 1,
					Weighted:         w,
					BackEdgeFraction: 0.3,
				})
			},
		},
		{
			Name: "web", StandsFor: "ic / uk / sd", PowerLaw: true,
			Build: func(o Options, w bool) *graph.Graph {
				cfg := gen.RMATConfig{
					ScaleLog2:  o.Scale,
					EdgeFactor: 16,
					A:          0.65, B: 0.15, C: 0.15,
					Seed:     o.Seed + 2,
					Weighted: w,
				}
				return gen.RMAT(cfg)
			},
		},
		{
			Name: "apu", StandsFor: "ca-AstroPh (undirected)", Undirected: true, PowerLaw: true,
			Build: func(o Options, w bool) *graph.Graph {
				cfg := gen.DefaultRMAT(o.Scale-1, o.Seed+3)
				cfg.Undirected = true
				cfg.Weighted = w
				return gen.RMAT(cfg)
			},
		},
		{
			Name: "road", StandsFor: "roadNet-CA/PA, Western-USA", Undirected: true, PowerLaw: false,
			Build: func(o Options, w bool) *graph.Graph {
				return gen.RoadGrid(gen.RoadConfig{
					Side:          1 << (o.Scale / 2),
					ExtraFraction: 0.1,
					Seed:          o.Seed + 4,
					Weighted:      w,
				})
			},
		},
	}
}

// DatasetByName resolves a stand-in by label.
func DatasetByName(name string) (Dataset, bool) {
	for _, d := range StandardDatasets() {
		if d.Name == name {
			return d, true
		}
	}
	return Dataset{}, false
}

// prepared bundles a generated, in-degree-reordered graph together with
// the dataset key that identifies its build — the graph half of a cell
// cache key.
type prepared struct {
	g   *graph.Graph
	key datasets.Key
}

// datasetKey is the cache identity of one dataset build.
func datasetKey(ds Dataset, o Options, weighted, reordered bool) datasets.Key {
	return datasets.Key{
		Kind:      ds.Name,
		Scale:     o.Scale,
		Seed:      o.Seed,
		Weighted:  weighted,
		Reordered: reordered,
	}
}

// buildDataset generates one dataset variant, drawing from o.Datasets
// (a nil cache builds fresh). Cached graphs are shared between runners
// (possibly concurrently), which is safe because a built graph is never
// mutated: the name is stamped inside the build so no writer touches a
// graph after it enters the cache.
func buildDataset(ds Dataset, o Options, weighted, reordered bool) *graph.Graph {
	build := func() *graph.Graph {
		g := ds.Build(o, weighted)
		if reordered {
			g = reorder.Apply(g, reorder.Compute(g, reorder.InDegree))
		}
		g.Name = ds.Name
		return g
	}
	g, hit := o.Datasets.GetOrBuild(datasetKey(ds, o, weighted, reordered), build)
	o.tally.dataset(hit)
	return g
}

// prepareDataset builds and reorders a dataset (§VI: OMEGA's static
// placement relies on in-degree ordering).
func prepareDataset(ds Dataset, o Options, weighted bool) prepared {
	return prepared{
		g:   buildDataset(ds, o, weighted, true),
		key: datasetKey(ds, o, weighted, true),
	}
}

// rawDataset builds a dataset without the in-degree reordering — for
// runners that characterize or reorder the generator output themselves.
func rawDataset(ds Dataset, o Options, weighted bool) *graph.Graph {
	return buildDataset(ds, o, weighted, false)
}

// newMachine builds one experiment machine: the harness context is
// attached for cooperative cancellation and, when this run buffers
// metrics, the machine emits into the run's sample buffer under the
// given run label (machine name distinguishes baseline/omega within a
// run). Neither attachment perturbs simulation results.
func (o Options) newMachine(cfg core.Config, run string) *core.Machine {
	m := core.NewMachine(cfg)
	m.AttachContext(o.ctx)
	if o.sink != nil {
		m.AttachSink(obs.WithRun(o.sink, run))
	}
	return m
}
