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
	rep, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range rep.Cells {
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

// TestLineBufSDCPair is the silent-data-corruption acceptance pair: the
// same line-buffer corruption (rate 5e-3, seed 3) classifies as
// detected-corrected when the modeled hardware has memo generation
// checks, and as silent-data-corruption — recovered within the
// re-execution budget — when it does not. The (rate, seed) pair was
// picked empirically; determinism keeps it stable.
func TestLineBufSDCPair(t *testing.T) {
	const rate, seed = 5e-3, 3
	pol := resilience.DefaultPolicy()

	checked := CampaignFor(campaignOpts()).Workload
	g, err := resilience.RunGolden(checked, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := resilience.RunOne(checked, faults.SiteLineBuf, rate, seed, pol, g, nil)
	if rep.First != resilience.DetectedCorrected {
		t.Fatalf("gen checks on: first attempt %v, want detected-corrected", rep.First)
	}
	if rep.Attempts != 1 {
		t.Fatalf("gen checks on: %d attempts, want 1 (detection needs no recovery)", rep.Attempts)
	}

	unchecked := checked
	unchecked.Config.DisableLineBufGenCheck = true
	g2, err := resilience.RunGolden(unchecked, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep = resilience.RunOne(unchecked, faults.SiteLineBuf, rate, seed, pol, g2, nil)
	if rep.First != resilience.SilentDataCorruption {
		t.Fatalf("gen checks off: first attempt %v, want silent-data-corruption", rep.First)
	}
	if !rep.Recovered() {
		t.Fatalf("SDC not recovered within budget: %+v", rep)
	}
	if rep.Attempts < 2 || rep.Attempts > pol.MaxRetries+1 {
		t.Fatalf("recovery attempts %d outside (1, %d]", rep.Attempts, pol.MaxRetries+1)
	}
	if rep.OverheadCycles == 0 {
		t.Fatal("recovery charged no overhead cycles")
	}
}

// TestSnapshotRestoreRerunIdentity: restoring the pristine checkpoint and
// re-running must reproduce the original run's stats byte-for-byte, with
// and without fault injection — the property the recovery loop rests on.
func TestSnapshotRestoreRerunIdentity(t *testing.T) {
	for _, withFaults := range []bool{false, true} {
		w := CampaignFor(campaignOpts()).Workload
		cfg := w.Config
		if withFaults {
			cfg.Faults = faults.Config{Seed: 11, SPParityRate: 1e-3, DRAMFlipRate: 1e-3, LineBufFlipRate: 1e-2}
		}
		m := core.NewMachine(cfg)
		pristine := m.Snapshot()
		st1, _ := w.Run(ligra.New(m, w.Graph))
		m.Restore(pristine)
		st2, _ := w.Run(ligra.New(m, w.Graph))
		if !bytes.Equal(statsJSON(t, st1), statsJSON(t, st2)) {
			t.Fatalf("faults=%v: restored re-run diverged from original", withFaults)
		}
		if withFaults && st1.Faults.Total() == 0 {
			t.Fatal("fault arm injected nothing — identity check is vacuous")
		}
		if withFaults && st1.Faults.LineBufFlips == 0 {
			t.Fatal("no memo corruption injected — the restored memo records go unchecked")
		}
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
