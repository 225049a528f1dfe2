package experiments

import (
	"context"
	"fmt"
	"reflect"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"omega/internal/algorithms"
	"omega/internal/core"
	"omega/internal/graph"
	"omega/internal/graph/datasets"
	"omega/internal/ligra"
	"omega/internal/obs"
)

// This file is the simulation-cell cache (DESIGN.md §12): the dataset
// cache's memoization idea lifted one level up, from graph builds to
// complete machine simulations. A cell is one (machine configuration,
// dataset, workload) triple; the simulator is deterministic by
// construction, so two requests for the same cell would compute
// bit-identical MachineStats and emit the identical metric-sample
// multiset — the cache simply stops the second request from paying for
// the re-simulation. Requests for a cell whose first build is still in
// flight block on that builder (singleflight), which converts the
// parallel suite's duplicate work into hits too.

// CellKey identifies one deterministic simulation cell. Every input
// that can influence the simulated numbers is part of the key: the
// machine configuration in canonical encoding (including the fault
// configuration and its seed, access-batching mode, and the machine
// name that labels emitted samples), the dataset build key, and the
// workload identity including its baked-in iteration schedule.
type CellKey struct {
	// Config is core.Config.CanonicalKey() of the effective config.
	Config string
	// Dataset identifies the graph build.
	Dataset datasets.Key
	// Workload is algorithms.Spec.WorkloadID().
	Workload string
}

// Cell is one cached simulation: the stats snapshot, the vtxProp
// access skew, and the canonical pre-stamp metric-sample stream
// (sorted, with Run and Experiment fields unset — each requesting run
// restamps its own labels at replay, so differently-labeled call sites
// can share one cell and still emit byte-identical streams).
type Cell struct {
	// Stats is the machine statistics of the run (a pure value type).
	Stats core.MachineStats
	// TopShare is the fraction of vtxProp accesses that targeted the 20%
	// highest-in-degree vertices (Figures 4(b) and 5). Only the share is
	// kept: the per-vertex profile it is computed from costs 8 B/vertex.
	TopShare float64
	// samples is the canonical pre-stamp sample stream.
	samples []obs.MetricSample
}

// Uncacheable reasons: why a cell-routed run bypassed the cache. The
// counts surface in the suite summary so "how much of the suite is
// cacheable" stays measured, not assumed.
const (
	// UncacheableGraph marks a run on a graph that is not identified by
	// a dataset key (transformed, grown, or hand-built).
	UncacheableGraph = "graph"
	// UncacheableWorkload marks a workload whose Run closure is not the
	// registered algorithm (custom schedules, instrumented variants).
	UncacheableWorkload = "workload"
	// UncacheableCampaign marks machine runs under the resilience
	// campaign engine, whose fault-injected attempts and recovery
	// re-executions the cell abstraction cannot represent.
	UncacheableCampaign = "campaign"
)

// cellEntry is one cache slot: done closes when the first builder
// finishes (successfully or not); failed marks a builder that panicked,
// whose waiters retry the lookup instead of sharing the panic — a
// watchdog-cancelled builder must not cancel innocent waiters, and a
// deterministic bug re-panics on the retry anyway.
type cellEntry struct {
	done   chan struct{}
	cell   Cell
	ok     bool
	failed bool
}

// CellCache memoizes complete simulation cells across experiments. It
// is safe for concurrent use; a nil *CellCache disables caching (every
// cell simulates fresh — the pre-cache behaviour).
type CellCache struct {
	mu      sync.Mutex
	entries map[CellKey]*cellEntry

	hits   atomic.Uint64
	misses atomic.Uint64
	dedups atomic.Uint64

	uncMu sync.Mutex
	unc   map[string]uint64
}

// NewCellCache returns an empty cell cache.
func NewCellCache() *CellCache {
	return &CellCache{
		entries: make(map[CellKey]*cellEntry),
		unc:     make(map[string]uint64),
	}
}

// CellCacheStats is a point-in-time snapshot of cache effectiveness.
type CellCacheStats struct {
	// Hits counts lookups satisfied by an already-built cell.
	Hits uint64
	// Misses counts lookups that built the cell.
	Misses uint64
	// Dedups counts lookups that blocked on another run's in-flight
	// build of the same cell (singleflight shares). The three counts are
	// disjoint: a lookup lands in exactly one, except that a waiter
	// whose builder panicked counts again on its retry.
	Dedups uint64
	// Resident is the number of cells held.
	Resident int
	// Uncacheable counts bypasses by reason.
	Uncacheable map[string]uint64
}

// DuplicateRate is the fraction of cacheable cell requests that were
// duplicates of an already-requested cell: (hits+dedups)/(total).
func (s CellCacheStats) DuplicateRate() float64 {
	total := s.Hits + s.Misses + s.Dedups
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Dedups) / float64(total)
}

// Stats snapshots the cache counters.
func (c *CellCache) Stats() CellCacheStats {
	if c == nil {
		return CellCacheStats{}
	}
	st := CellCacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Dedups:      c.dedups.Load(),
		Uncacheable: make(map[string]uint64),
	}
	c.mu.Lock()
	st.Resident = len(c.entries)
	c.mu.Unlock()
	c.uncMu.Lock()
	for k, v := range c.unc {
		st.Uncacheable[k] = v
	}
	c.uncMu.Unlock()
	return st
}

// Len returns the number of resident cells.
func (c *CellCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// noteUncacheable counts n cache bypasses for the given reason.
func (c *CellCache) noteUncacheable(reason string, n uint64) {
	if c == nil || n == 0 {
		return
	}
	c.uncMu.Lock()
	c.unc[reason] += n
	c.uncMu.Unlock()
}

// uncacheableNote renders the bypass counts for the suite summary
// ("; uncacheable: campaign=9, workload=2"), empty when none.
func (s CellCacheStats) uncacheableNote() string {
	if len(s.Uncacheable) == 0 {
		return ""
	}
	reasons := make([]string, 0, len(s.Uncacheable))
	for r := range s.Uncacheable {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	parts := make([]string, len(reasons))
	for i, r := range reasons {
		parts[i] = fmt.Sprintf("%s=%d", r, s.Uncacheable[r])
	}
	return "; uncacheable: " + strings.Join(parts, ", ")
}

// cellOutcome classifies one getOrRun call.
type cellOutcome int

const (
	cellBuilt cellOutcome = iota // this call simulated the cell
	cellHit                      // cell was already resident
	cellDedup                    // blocked on another call's in-flight build
)

// getOrRun returns the cell for k, simulating it at most once across
// all concurrent callers. A builder that panics (including cooperative
// cancellation) evicts its entry and re-panics on its own goroutine;
// waiters of a failed build retry the lookup — one becomes the next
// builder under its own context, so a cancelled requester never fails
// an innocent sharer.
func (c *CellCache) getOrRun(k CellKey, build func() Cell) (Cell, cellOutcome) {
	for {
		c.mu.Lock()
		e, ok := c.entries[k]
		if !ok {
			e = &cellEntry{done: make(chan struct{})}
			c.entries[k] = e
			c.mu.Unlock()
			c.misses.Add(1)
			func() {
				defer func() {
					if !e.ok {
						// Build panicked: evict so the key stays
						// rebuildable, then release the waiters into
						// their retry loops. The panic keeps unwinding
						// to this requester's harness.
						e.failed = true
						c.mu.Lock()
						if c.entries[k] == e {
							delete(c.entries, k)
						}
						c.mu.Unlock()
						close(e.done)
					}
				}()
				e.cell = build()
				e.ok = true
				close(e.done)
			}()
			return e.cell, cellBuilt
		}
		c.mu.Unlock()
		outcome := cellHit
		select {
		case <-e.done:
		default:
			// The first builder is still simulating: this is exactly the
			// concurrent duplicate work the singleflight converts into a
			// shared result.
			outcome = cellDedup
			c.dedups.Add(1)
			<-e.done
		}
		if e.failed {
			continue
		}
		if outcome == cellHit {
			c.hits.Add(1)
		}
		return e.cell, outcome
	}
}

// cellCounters attributes cell-cache traffic to one experiment run
// (the per-suite analog of datasets.Counters). Nil discards records.
type cellCounters struct {
	cells atomic.Uint64
	hits  atomic.Uint64
}

func (c *cellCounters) noteCell() {
	if c != nil {
		c.cells.Add(1)
	}
}

func (c *cellCounters) noteHit() {
	if c != nil {
		c.hits.Add(1)
	}
}

// registryWorkload reports whether spec.Run is the registered algorithm
// closure for spec.Name — the cacheability guard against custom
// closures reusing a registry name with a different schedule. Closures
// instantiated from the same func literal share one code pointer, so
// specs obtained from algorithms.All()/ByName always pass.
func registryWorkload(spec algorithms.Spec) bool {
	reg, ok := algorithms.ByName(spec.Name)
	return ok &&
		reflect.ValueOf(reg.Run).Pointer() == reflect.ValueOf(spec.Run).Pointer()
}

// uncacheableReason classifies a cell-routed run that must bypass the
// cache, or returns "" when the cell is cacheable.
func (o Options) uncacheableReason(spec algorithms.Spec, pr prepared) string {
	if !pr.keyed {
		return UncacheableGraph
	}
	if !registryWorkload(spec) {
		return UncacheableWorkload
	}
	return ""
}

// runCell simulates one (config, graph, workload) cell and returns its
// stats; see cellFor.
func runCell(o Options, spec algorithms.Spec, pr prepared, cfg core.Config, run string) core.MachineStats {
	return cellFor(o, spec, pr, cfg, run).Stats
}

// cellFor simulates one (config, graph, workload) cell, drawing from
// o.Cells when the cell is cacheable. run is the label stamped into the
// requesting run's sample stream; it is NOT part of the cell identity —
// cells store pre-stamp samples and each requester restamps, so call
// sites with different labeling conventions share cells. The returned
// Cell's sample stream is the cache's; callers read only Stats and
// TopShare.
func cellFor(o Options, spec algorithms.Spec, pr prepared, cfg core.Config, run string) Cell {
	o.cellStats.noteCell()
	if o.Cells == nil {
		return buildCellDirect(o, spec, pr, cfg, run)
	}
	if reason := o.uncacheableReason(spec, pr); reason != "" {
		o.Cells.noteUncacheable(reason, 1)
		return buildCellDirect(o, spec, pr, cfg, run)
	}
	key := CellKey{
		Config:   cfg.CanonicalKey(),
		Dataset:  pr.key,
		Workload: spec.WorkloadID(),
	}
	cell, outcome := o.Cells.getOrRun(key, func() Cell {
		return buildCell(o, spec, pr, cfg)
	})
	if outcome == cellBuilt {
		// The builder forwards its freshly captured stream (already part
		// of the build's cost; no replay label).
		replaySamples(o.sink, cell.samples, run)
		return cell
	}
	o.cellStats.noteHit()
	if o.sink != nil {
		// Replay under its own pprof label so suite profiles attribute
		// restamp/copy time to the cache, not to simulation.
		pprof.Do(o.Context(), pprof.Labels("cell", "replay"), func(context.Context) {
			replaySamples(o.sink, cell.samples, run)
		})
	}
	return cell
}

// buildCell simulates a cacheable cell: the machine always emits into a
// private capture buffer — even when this run has no sink — so the
// stored stream is complete for future requesters. Attaching a sink is
// read-only by contract (the golden tests enforce it), so capture never
// perturbs the cached stats.
func buildCell(o Options, spec algorithms.Spec, pr prepared, cfg core.Config) Cell {
	capture := obs.NewBuffer()
	var c Cell
	pprof.Do(o.Context(), pprof.Labels("cell", "build", "machine", cfg.Name), func(context.Context) {
		c = simulateCell(o, spec, pr, cfg, capture)
	})
	c.samples = capture.Drain()
	// Canonicalize once at build time: Run/Experiment are unset here, and
	// the sort order is total, so every replay starts from one canonical
	// sequence regardless of emission interleavings.
	obs.SortSamples(c.samples)
	return c
}

// buildCellDirect is the bypass path (cache disabled or cell
// uncacheable): simulate exactly like the pre-cache harness, emitting
// straight into the run's sink under its run label.
func buildCellDirect(o Options, spec algorithms.Spec, pr prepared, cfg core.Config, run string) (c Cell) {
	var sink obs.Sink
	if o.sink != nil {
		sink = obs.WithRun(o.sink, run)
	}
	pprof.Do(o.Context(), pprof.Labels("machine", cfg.Name), func(context.Context) {
		c = simulateCell(o, spec, pr, cfg, sink)
	})
	return c
}

// simulateCell runs the workload on a fresh machine with the vtxProp
// profile on (a read-only counter, so the stats do not move) and
// reduces the profile to the cell's top-20% access share.
func simulateCell(o Options, spec algorithms.Spec, pr prepared, cfg core.Config, sink obs.Sink) Cell {
	m := core.NewMachine(cfg)
	m.AttachContext(o.ctx)
	m.AttachSink(sink)
	m.EnableVertexProfile(pr.g.NumVertices())
	st := spec.Run(ligra.New(m, pr.g))
	return Cell{Stats: st, TopShare: graph.AccessShareToTopK(pr.g, m.VertexProfile(), 0.20)}
}

// replaySamples re-emits a cell's canonical stream into a run's sink,
// restamped with the run's label. The experiment ID is stamped later by
// the harness (emitRunMetrics), exactly as for a live machine.
func replaySamples(sink obs.Sink, samples []obs.MetricSample, run string) {
	if sink == nil {
		return
	}
	for _, s := range samples {
		s.Run = run
		sink.Sample(s)
	}
}
