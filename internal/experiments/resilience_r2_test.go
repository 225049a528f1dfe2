package experiments

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"omega/internal/core"
	"omega/internal/faults"
	"omega/internal/ligra"
	"omega/internal/resilience"
)

func campaignOpts() Options {
	return Options{Scale: 9, Seed: 42, Coverage: 0.20}
}

// TestCampaignZeroRateIsClean: a campaign swept at rate 0 must classify
// every run clean on its first attempt with zero recovery activity — the
// engine itself must not perturb a fault-free simulation.
func TestCampaignZeroRateIsClean(t *testing.T) {
	camp := CampaignFor(campaignOpts())
	camp.Rates = []float64{0}
	g, err := resilience.RunGolden(camp.Workload, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range runVariants(campaignOpts(), camp.Cells(g)...) {
		if cell.Outcomes[resilience.Clean] != len(camp.Seeds) {
			t.Fatalf("site %v at rate 0: outcomes %v", cell.Site, cell.Outcomes)
		}
		if cell.Reexecutions != 0 || cell.OverheadCycles != 0 {
			t.Fatalf("site %v at rate 0 ran recovery: %+v", cell.Site, cell)
		}
		for _, run := range cell.Runs {
			if run.Attempts != 1 || run.First != resilience.Clean {
				t.Fatalf("site %v at rate 0: run %+v", cell.Site, run)
			}
		}
	}
}

// TestCampaignSequentialParallelIdentical is the campaign determinism
// guarantee: the same (site, rate, seed) sweep renders byte-identical
// TSV whether cells run sequentially or fanned out to goroutines.
func TestCampaignSequentialParallelIdentical(t *testing.T) {
	o := campaignOpts()
	o.serialVariants = true
	seq := RunResilienceCampaign(o)
	o.serialVariants = false
	par := RunResilienceCampaign(o)
	if seq.Failed || par.Failed {
		t.Fatalf("campaign failed: seq=%v par=%v", seq.Title, par.Title)
	}
	if seq.TSV() != par.TSV() {
		t.Fatalf("sequential and parallel campaigns diverge:\n--- seq\n%s\n--- par\n%s",
			seq.TSV(), par.TSV())
	}
}

// TestCampaignFaultSeedChangesRuns: FaultSeed is a real input — a
// different seed must draw a different campaign (while the same seed
// reproduces byte-identically, per the test above and the goldens).
func TestCampaignFaultSeedChangesRuns(t *testing.T) {
	o := campaignOpts()
	a := RunResilienceCampaign(o)
	o.FaultSeed = 7
	b := RunResilienceCampaign(o)
	if a.TSV() == b.TSV() {
		t.Fatal("fault seeds 1 and 7 produced identical campaigns")
	}
}

// TestLineBufCatchNeedsNoRecovery: a line-buffer corruption (rate 5e-3,
// seed 3) is caught by the memo generation check, so the run classifies
// detected-corrected on its first attempt and needs no re-execution.
// Recovery from silent data corruption stays pinned by the pisc-alu rows
// of both R2 goldens.
func TestLineBufCatchNeedsNoRecovery(t *testing.T) {
	const rate, seed = 5e-3, 3
	w := CampaignFor(campaignOpts()).Workload
	g, err := resilience.RunGolden(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := resilience.RunOne(w, faults.SiteLineBuf, rate, seed, g, nil)
	if rep.First != resilience.DetectedCorrected {
		t.Fatalf("first attempt %v, want detected-corrected", rep.First)
	}
	if rep.Attempts != 1 {
		t.Fatalf("%d attempts, want 1 (detection needs no recovery)", rep.Attempts)
	}
}

// TestWedgedRunnerCancelled is the cancellation acceptance test: a
// deliberately wedged experiment — a machine spinning in ParallelFor
// forever — must be cancelled cooperatively by a 100 ms watchdog, return
// well under a second with a failed table, and leave no goroutine behind.
func TestWedgedRunnerCancelled(t *testing.T) {
	baseline := runtime.NumGoroutine()
	spec := Spec{ID: "wedge", Run: func(o Options) *Table {
		cfg, _ := core.ScaledPair(1<<9, 8, 0.20)
		m := core.NewMachine(cfg)
		m.AttachContext(o.Context())
		for {
			// Each pass schedules far more items than the cancellation poll
			// interval, so a cancel lands mid-loop, not between passes.
			m.ParallelFor(1<<20, func(ctx *core.Ctx, i int) {
				ctx.Exec(1)
			})
		}
	}}
	start := time.Now()
	tbl := RunSafe(context.Background(), spec, campaignOpts(), 100*time.Millisecond)
	elapsed := time.Since(start)
	if elapsed >= time.Second {
		t.Fatalf("wedged runner took %v to cancel, want < 1s", elapsed)
	}
	if !tbl.Failed || !strings.Contains(tbl.Title, "watchdog") {
		t.Fatalf("wedged runner not reported as watchdog failure: %+v", tbl)
	}
	if !strings.Contains(tbl.Title, "cancelled cooperatively") {
		t.Fatalf("runner should have unwound cooperatively: %q", tbl.Title)
	}
	// The runner goroutine must actually be gone — poll briefly to let the
	// scheduler retire it.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines leaked: %d > baseline %d", n, baseline)
	}
}

// TestLineBufferNeutralUnderSPFaults (fault × line-buffer interaction):
// injected scratchpad parity degradations drop vertices to the cache
// hierarchy on every core; the same-line fast path must stay bit-neutral
// through that — never replaying a memo from before the degradation.
func TestLineBufferNeutralUnderSPFaults(t *testing.T) {
	o := campaignOpts()
	run := func(disableLineBuf bool) core.MachineStats {
		w := CampaignFor(o).Workload
		cfg := w.Config
		cfg.DisableLineBuffer = disableLineBuf
		cfg.Faults = faults.Config{Seed: 5, SPParityRate: 1e-2}
		m := core.NewMachine(cfg)
		st, _ := w.Run(ligra.New(m, w.Graph))
		return st
	}
	on, off := run(false), run(true)
	if on.SPDegraded == 0 {
		t.Fatal("parity rate 1e-2 degraded nothing — interaction test is vacuous")
	}
	if !bytes.Equal(statsJSON(t, on), statsJSON(t, off)) {
		t.Fatal("line buffer changed stats under scratchpad parity faults")
	}
}
