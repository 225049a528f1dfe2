package experiments

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"omega/internal/obs"
)

// Spec registers one experiment runner under the ID its artifacts use.
type Spec struct {
	// ID is the paper artifact ("Table I", "Figure 14", "Resilience R1").
	ID string
	// Run regenerates the artifact.
	Run func(Options) *Table
}

// Registry returns every registered experiment in suite order — the
// single source cmd/omega-bench, perfbench and the facade iterate.
func Registry() []Spec {
	return []Spec{
		{"Table I", Table1},
		{"Table II", Table2},
		{"Table III", Table3},
		{"Table IV", Table4},
		{"Figure 3", Figure3},
		{"Figure 4a", Figure4a},
		{"Figure 4b", Figure4b},
		{"Figure 5", Figure5},
		{"Figure 14", Figure14},
		{"Figure 15", Figure15},
		{"Figure 16", Figure16},
		{"Figure 17", Figure17},
		{"Figure 18", Figure18},
		{"Figure 19", Figure19},
		{"Figure 20", Figure20},
		{"Figure 21", Figure21},
		{"Ablation A1", AblationScratchpadOnly},
		{"Ablation A2", AblationAtomicOverhead},
		{"Ablation A3", AblationReordering},
		{"Ablation A4", AblationChunkMapping},
		{"Ablation A5", AblationLockedCache},
		{"Ablation A6", AblationPrefetcher},
		{"Extension E1", ExtensionSlicing},
		{"Extension E2", ExtensionDynamicGraph},
		{"Extension E3", ExtensionPagePolicy},
		{"Extension E4", ExtensionGraphMat},
		{"Extension E5", ExtensionScaleRobustness},
		{"Extension E6", ExtensionSeedSensitivity},
		{"Extension E7", ExtensionTraversalDirection},
		{"Resilience R1", RunResilience},
		{"Resilience R2", RunResilienceCampaign},
	}
}

// SpecByID resolves a registered experiment by its artifact ID.
func SpecByID(id string) (Spec, bool) {
	for _, s := range Registry() {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// FailedTable builds the table the harness substitutes for a runner that
// could not produce results: the suite keeps going and reports why.
func FailedTable(id, reason string, diagnostics ...string) *Table {
	t := &Table{
		ID:     id,
		Title:  "FAILED — " + reason,
		Header: []string{"error"},
		Failed: true,
	}
	t.AddRow(reason)
	for _, d := range diagnostics {
		for _, line := range strings.Split(strings.TrimRight(d, "\n"), "\n") {
			t.Notes = append(t.Notes, line)
		}
	}
	return t
}

// cancelGrace is how long RunSafe waits, after cancelling the runner's
// context, for the runner goroutine to unwind cooperatively before
// declaring it abandoned. Machines poll their context every few thousand
// scheduled items, so a healthy runner exits well inside the grace; only
// a runner wedged outside the simulation loops (or one that never built a
// machine) is actually abandoned.
const cancelGrace = 500 * time.Millisecond

// RunSafe executes spec.Run under the hardened harness: a panicking
// runner is recovered into a failed Table carrying its stack trace, and a
// runner that exceeds the watchdog timeout (or outlives ctx — SIGINT in
// cmd/omega-bench) is cancelled cooperatively — the machines it drives
// unwind at their next cancellation poll — and reported as failed. In
// every case the caller gets a printable Table back so the rest of the
// suite keeps going. timeout <= 0 disables the watchdog. Only a runner
// that ignores its context past the grace period leaks its goroutine;
// its eventual result is discarded. A ctx that is already done never
// starts the runner.
func RunSafe(ctx context.Context, spec Spec, o Options, timeout time.Duration) *Table {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		tbl := FailedTable(spec.ID, fmt.Sprintf("cancelled: %v", err))
		emitRunMetrics(o.Metrics, nil, spec.ID, tbl)
		return tbl
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	o.ctx = runCtx
	var buf *obs.Buffer
	if o.Metrics != nil {
		// Machines built by this run emit into a private buffer; the
		// samples reach o.Metrics only after the runner exits cleanly —
		// sorted, stamped, and replayed below — so concurrent variant
		// goroutines and abandoned runners never write to the user's sink.
		buf = obs.NewBuffer()
		o.sink = buf
	}
	done := make(chan *Table, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if cancelPanic(r) {
					// Cooperative unwind: the harness side picks the reason
					// (cancelled vs watchdog); nil just signals clean exit.
					done <- FailedTable(spec.ID, fmt.Sprintf("cancelled: %v", runCtx.Err()))
					return
				}
				done <- FailedTable(spec.ID,
					fmt.Sprintf("runner panicked: %v", r), string(debug.Stack()))
			}
		}()
		done <- spec.Run(o)
	}()
	var watchdog <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		watchdog = timer.C
	}
	var tbl *Table
	select {
	case t := <-done:
		if t == nil {
			tbl = FailedTable(spec.ID, "runner returned no table")
		} else {
			tbl = t
		}
	case <-ctx.Done():
		cancel()
		awaitRunner(done)
		tbl = FailedTable(spec.ID, fmt.Sprintf("cancelled: %v", ctx.Err()))
	case <-watchdog:
		cancel()
		if awaitRunner(done) {
			tbl = FailedTable(spec.ID,
				fmt.Sprintf("watchdog: runner exceeded %v (cancelled cooperatively)", timeout))
		} else {
			tbl = FailedTable(spec.ID,
				fmt.Sprintf("watchdog: runner exceeded %v (abandoned)", timeout))
		}
	}
	emitRunMetrics(o.Metrics, buf, spec.ID, tbl)
	return tbl
}

// emitRunMetrics forwards a finished run's buffered samples to the
// user's sink: canonically sorted (variant goroutines interleave
// nondeterministically; the sort restores a total order), stamped with
// the experiment ID, and followed by harness-level samples (row count,
// failure marker) so even machine-less experiments emit. Failed tables
// forward only the harness samples — an abandoned runner may still be
// writing to the buffer, and a cancelled run's partial series is not
// deterministic.
func emitRunMetrics(sink obs.Sink, buf *obs.Buffer, id string, t *Table) {
	if sink == nil {
		return
	}
	if buf != nil && !t.Failed {
		samples := buf.Drain()
		obs.SortSamples(samples)
		for i := range samples {
			samples[i].Experiment = id
			sink.Sample(samples[i])
		}
	}
	h := obs.MetricSample{Experiment: id, Machine: "harness", Component: "harness"}
	if n := uint64(len(t.Rows)); n > 0 {
		h.Name, h.Value = "rows", n
		sink.Sample(h)
	}
	if t.Failed {
		h.Name, h.Value = "failed", 1
		sink.Sample(h)
	}
}

// awaitRunner gives a just-cancelled runner cancelGrace to unwind,
// reporting whether it exited (its table, if any, is discarded — the
// caller substitutes the cancellation/watchdog reason).
func awaitRunner(done <-chan *Table) bool {
	timer := time.NewTimer(cancelGrace)
	defer timer.Stop()
	select {
	case <-done:
		return true
	case <-timer.C:
		return false
	}
}
