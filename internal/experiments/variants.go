package experiments

import (
	"context"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"

	"omega/internal/algorithms"
	"omega/internal/core"
)

// This file is the variant-concurrency layer: experiment runners that
// compare independent machine variants (baseline vs OMEGA, ablation
// arms, sensitivity points) fan each variant out to its own goroutine.
//
// The concurrency is safe because each variant owns a freshly built
// core.Machine — a Machine is single-goroutine by design, and every bit
// of its mutable state (cores, caches, directory, DRAM, the
// ParallelForGrain schedState scratch, fault-injector PRNGs) lives
// inside the Machine — while the only shared inputs are the prepared
// *graph.Graph and the algorithm Spec, both immutable after
// construction (graphs are shared read-only across suite runners via
// the datasets cache already). Results are merged back in declaration
// order, so tables are byte-identical to the sequential harness.

// variantPanic carries a panic value out of a variant goroutine to the
// runner goroutine, preserving the originating stack so RunSafe's
// recovery report points at the variant, not at runVariants.
type variantPanic struct {
	value any
	stack string
}

// String makes the re-raised panic render usefully through RunSafe's
// "%v" formatting.
func (p *variantPanic) String() string {
	return fmt.Sprintf("variant goroutine: %v\n%s", p.value, p.stack)
}

// runVariants executes the given variant functions and returns their
// results in declaration order. With serialVariants set (or fewer than
// two variants) it runs them in place, reproducing the sequential
// harness exactly; otherwise each variant gets its own goroutine. If a
// variant panics, the panic is re-raised on the calling goroutine after
// every variant has finished, so the RunSafe harness recovers it the
// same way it would a sequential runner's panic.
func runVariants[T any](o Options, fns ...func() T) []T {
	out := make([]T, len(fns))
	if o.serialVariants || len(fns) < 2 {
		for i, fn := range fns {
			out[i] = fn()
		}
		return out
	}
	panics := make([]*variantPanic, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[i] = &variantPanic{value: r, stack: string(debug.Stack())}
				}
			}()
			// Tag the goroutine with the variant index (the suite worker
			// already contributes the experiment ID to the inherited label
			// set), so suite CPU profiles split per variant.
			pprof.Do(o.Context(), pprof.Labels("variant", strconv.Itoa(i)), func(context.Context) {
				out[i] = fn()
			})
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	return out
}

// runMachines runs one algorithm over several machine configurations —
// one cell per variant, all sharing the immutable prepared graph — and
// returns the per-variant stats in configuration order. Each variant
// routes through runCell, so cells already simulated by this or any
// other experiment are reused instead of re-simulated.
func runMachines(o Options, spec algorithms.Spec, pr prepared, cfgs ...core.Config) []core.MachineStats {
	run := spec.Name + "/" + pr.g.Name
	fns := make([]func() core.MachineStats, len(cfgs))
	for i, cfg := range cfgs {
		fns[i] = func() core.MachineStats {
			return runCell(o, spec, pr, cfg, run)
		}
	}
	return runVariants(o, fns...)
}

// cancelPanic unwraps a recovered panic value — directly, or carried out
// of a variant goroutine by variantPanic — and reports whether it is a
// cooperative cancellation raised by a Machine run loop.
func cancelPanic(r any) bool {
	if vp, ok := r.(*variantPanic); ok {
		r = vp.value
	}
	return core.IsCancelled(r)
}
