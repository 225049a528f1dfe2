package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"omega/internal/graph/datasets"
	"omega/internal/obs"
)

// SuiteEvent reports one completed experiment to the Suite progress
// callback. Events arrive as experiments finish — out of suite order
// under parallelism — but Index always names the experiment's position
// in the spec slice, so callers can reassemble the deterministic order.
type SuiteEvent struct {
	// Index is the experiment's position in the spec slice.
	Index int
	// Total is the number of experiments in this suite run.
	Total int
	// ID is the spec's artifact ID.
	ID string
	// Table is the completed (possibly Failed) result.
	Table *Table
	// Wall is the experiment's wall-clock time.
	Wall time.Duration
}

// ExperimentTelemetry records per-experiment execution metadata gathered
// by Suite alongside the result table.
type ExperimentTelemetry struct {
	// ID is the spec's artifact ID.
	ID string
	// Wall is the experiment's wall-clock time.
	Wall time.Duration
	// CacheHits and CacheMisses count this experiment's dataset-cache
	// lookups (a hit includes blocking on another runner's in-flight
	// build — the generation work was shared either way).
	CacheHits, CacheMisses uint64
	// Cells counts the complete simulation cells this experiment asked
	// for, and CellHits how many were satisfied from the cross-experiment
	// cell cache (including singleflight shares) instead of simulated.
	Cells, CellHits uint64
	// Failed mirrors Table.Failed.
	Failed bool
}

// runTally attributes one experiment run's dataset-cache lookups and
// cell requests to that experiment (Options.tally). A nil *runTally
// discards records.
type runTally struct {
	datasetHits, datasetMisses atomic.Uint64
	cells, cellHits            atomic.Uint64
}

// dataset notes one dataset-cache lookup.
func (t *runTally) dataset(hit bool) {
	if t == nil {
		return
	}
	if hit {
		t.datasetHits.Add(1)
	} else {
		t.datasetMisses.Add(1)
	}
}

// cell notes one cell request; hit marks a replay or singleflight share.
func (t *runTally) cell(hit bool) {
	if t == nil {
		return
	}
	t.cells.Add(1)
	if hit {
		t.cellHits.Add(1)
	}
}

// SuiteResult is a completed suite run: tables and telemetry in
// deterministic suite (spec-slice) order regardless of worker
// interleaving, plus a rendered telemetry summary table.
type SuiteResult struct {
	// Tables holds one result per spec, in spec order.
	Tables []*Table
	// Telemetry holds per-experiment metadata, parallel to Tables.
	Telemetry []ExperimentTelemetry
	// Summary renders Telemetry as a Table ("Suite") for printing next
	// to the experiment artifacts.
	Summary *Table
	// Wall is the whole suite's wall-clock time.
	Wall time.Duration
	// Parallelism is the resolved worker-pool size.
	Parallelism int
	// Cells is the simulation-cell cache the suite ran with.
	Cells *CellCache
}

// Failed counts failed tables.
func (r *SuiteResult) Failed() int {
	n := 0
	for _, t := range r.Tables {
		if t != nil && t.Failed {
			n++
		}
	}
	return n
}

// Suite fans specs across a bounded worker pool and returns every result
// in spec order. Each runner executes under the RunSafe watchdog
// (o.Timeout; zero disables it) with panic recovery, so a broken or hung
// experiment yields a Failed table and the suite completes. Cancelling
// ctx abandons in-flight runners and fails the not-yet-started rest.
// Experiments dispatch in spec order.
//
// o.Parallelism bounds the pool (zero = GOMAXPROCS, 1 = sequential). If
// o.Datasets is nil, Suite installs a fresh shared cache so concurrent
// runners asking for the same (generator, scale, seed, reorder) tuple
// build the graph once; runners are otherwise pure functions of Options,
// which is why parallel, sequential, and cached runs produce identical
// tables.
//
// progress, if non-nil, is invoked once per completed experiment; calls
// are serialized, but arrive in completion order, not suite order.
func Suite(ctx context.Context, specs []Spec, o Options, progress func(SuiteEvent)) *SuiteResult {
	o = o.Defaults()
	if ctx == nil {
		ctx = context.Background()
	}
	par := o.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(specs) && len(specs) > 0 {
		par = len(specs)
	}
	if o.Datasets == nil {
		o.Datasets = datasets.New()
	}
	if o.Cells == nil {
		o.Cells = NewCellCache()
	}
	// Under parallelism, experiments finish in nondeterministic order, so
	// each spec's samples land in a private buffer; after the pool drains
	// they are flushed to the user's sink in spec order. RunSafe already
	// sorts within an experiment, making the full series deterministic:
	// parallel and sequential suite runs emit byte-identical streams.
	var specBufs []*obs.Buffer
	if o.Metrics != nil {
		specBufs = make([]*obs.Buffer, len(specs))
		for i := range specBufs {
			specBufs[i] = obs.NewBuffer()
		}
	}

	start := time.Now()
	res := &SuiteResult{
		Tables:      make([]*Table, len(specs)),
		Telemetry:   make([]ExperimentTelemetry, len(specs)),
		Parallelism: par,
		Cells:       o.Cells,
	}
	jobs := make(chan int, len(specs))
	for i := range specs {
		jobs <- i
	}
	close(jobs)

	var wg sync.WaitGroup
	var progressMu sync.Mutex
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				spec := specs[i]
				ro := o
				tally := &runTally{}
				ro.tally = tally
				if specBufs != nil {
					ro.Metrics = specBufs[i]
				}
				t0 := time.Now()
				var tbl *Table
				// Label the worker (and every goroutine the runner spawns —
				// variant fan-outs inherit the set) with the experiment ID,
				// so CPU profiles of the suite attribute samples per
				// experiment (go tool pprof -tagfocus). Work queued behind
				// a cancellation fails fast inside RunSafe, which still
				// emits its failure marker.
				pprof.Do(ctx, pprof.Labels("experiment", spec.ID), func(ctx context.Context) {
					tbl = RunSafe(ctx, spec, ro, o.Timeout)
				})
				wall := time.Since(t0)
				res.Tables[i] = tbl
				res.Telemetry[i] = ExperimentTelemetry{
					ID:          spec.ID,
					Wall:        wall,
					CacheHits:   tally.datasetHits.Load(),
					CacheMisses: tally.datasetMisses.Load(),
					Cells:       tally.cells.Load(),
					CellHits:    tally.cellHits.Load(),
					Failed:      tbl.Failed,
				}
				if progress != nil {
					progressMu.Lock()
					progress(SuiteEvent{
						Index: i, Total: len(specs), ID: spec.ID,
						Table: tbl, Wall: wall,
					})
					progressMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if specBufs != nil {
		for _, b := range specBufs {
			for _, s := range b.Drain() {
				o.Metrics.Sample(s)
			}
		}
	}
	res.Wall = time.Since(start)
	res.Summary = suiteSummary(res, o)
	return res
}

// suiteSummary renders the telemetry as a printable table. Its first
// note names the option set so a written copy describes itself.
func suiteSummary(res *SuiteResult, o Options) *Table {
	t := &Table{
		ID:    "Suite",
		Title: fmt.Sprintf("suite telemetry (parallelism %d)", res.Parallelism),
		Header: []string{"experiment", "wall", "cache hits", "cache misses",
			"cells", "cell hits", "status"},
	}
	for _, te := range res.Telemetry {
		status := "ok"
		if te.Failed {
			status = "FAILED"
		}
		t.AddRow(te.ID, te.Wall.Round(time.Millisecond), te.CacheHits,
			te.CacheMisses, te.Cells, te.CellHits, status)
	}
	hits, misses := o.Datasets.Stats()
	t.Notes = append(t.Notes,
		fmt.Sprintf("scale %d, seed %d, coverage %.2f; suite wall %v over %d workers; dataset cache: %d hits / %d misses, %d graphs resident",
			o.Scale, o.Seed, o.Coverage, res.Wall.Round(time.Millisecond), res.Parallelism,
			hits, misses, o.Datasets.Len()))
	cs := o.Cells.Stats()
	t.Notes = append(t.Notes,
		fmt.Sprintf("cell cache: %d built, %d replayed, %d singleflight-shared (duplicate-cell rate %.1f%%), %d cells resident%s",
			cs.Misses, cs.Hits, cs.Dedups, 100*cs.DuplicateRate(), cs.Resident, cs.uncacheableNote()))
	return t
}
