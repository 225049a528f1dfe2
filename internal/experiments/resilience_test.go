package experiments

import (
	"bytes"
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"omega/internal/algorithms"
	"omega/internal/core"
	"omega/internal/ligra"
	"omega/internal/obs"
)

// faultStatsPair runs PageRank on the cheap rmat stand-in with the given
// fault configuration on both machines and returns their stats.
func faultStatsPair(tb testing.TB, o Options, rate float64, seed uint64) (core.MachineStats, core.MachineStats) {
	tb.Helper()
	spec, _ := algorithms.ByName("PageRank")
	pr := prepareDataset(mustDataset("rmat"), o, false)
	baseCfg, omCfg := core.ScaledPair(pr.g.NumVertices(), spec.VtxPropBytes, o.Coverage)
	if seed > 0 {
		baseCfg.Faults = ResilienceFaults(seed, rate)
		omCfg.Faults = ResilienceFaults(seed, rate)
	}
	base := spec.Run(ligra.New(core.NewMachine(baseCfg), pr.g))
	om := spec.Run(ligra.New(core.NewMachine(omCfg), pr.g))
	return base, om
}

func statsJSON(tb testing.TB, s core.MachineStats) []byte {
	tb.Helper()
	data, err := s.JSON()
	if err != nil {
		tb.Fatalf("stats json: %v", err)
	}
	return data
}

// TestZeroRateInjectionIsBitIdentical is the zero-cost-abstraction
// guarantee: a fault config with rates all zero must produce byte-for-byte
// the same MachineStats as no fault config at all, on both machines.
func TestZeroRateInjectionIsBitIdentical(t *testing.T) {
	o := Options{Scale: 10, Seed: 42, Coverage: 0.20}
	baseOff, omOff := faultStatsPair(t, o, 0, 0)
	baseZero, omZero := faultStatsPair(t, o, 0, 7)
	if !bytes.Equal(statsJSON(t, baseOff), statsJSON(t, baseZero)) {
		t.Fatal("baseline: rate-0 fault config changed the stats")
	}
	if !bytes.Equal(statsJSON(t, omOff), statsJSON(t, omZero)) {
		t.Fatal("omega: rate-0 fault config changed the stats")
	}
}

// TestInjectionIsDeterministic: same (seed, rate) must reproduce
// byte-identical MachineStats across two fully independent runs.
func TestInjectionIsDeterministic(t *testing.T) {
	o := Options{Scale: 10, Seed: 42, Coverage: 0.20}
	base1, om1 := faultStatsPair(t, o, 1e-3, 11)
	base2, om2 := faultStatsPair(t, o, 1e-3, 11)
	if !bytes.Equal(statsJSON(t, base1), statsJSON(t, base2)) {
		t.Fatal("baseline: two runs at the same (seed, rate) diverged")
	}
	if !bytes.Equal(statsJSON(t, om1), statsJSON(t, om2)) {
		t.Fatal("omega: two runs at the same (seed, rate) diverged")
	}
	if base1.Faults.Total() == 0 {
		t.Fatal("rate 1e-3 should have injected at least one fault on the baseline")
	}
	// A different seed must draw a different fault sequence.
	base3, _ := faultStatsPair(t, o, 1e-3, 12)
	if bytes.Equal(statsJSON(t, base1), statsJSON(t, base3)) {
		t.Fatal("different fault seeds produced identical stats")
	}
}

func TestRunResilienceShape(t *testing.T) {
	tbl := RunResilience(Options{Scale: 10, Seed: 42, Coverage: 0.20})
	if tbl.Failed {
		t.Fatalf("resilience run failed: %s", tbl.Title)
	}
	want := 1 + len(ResilienceRates)
	if len(tbl.Rows) != want {
		t.Fatalf("rows %d, want %d (fault-free + %d rates)", len(tbl.Rows), want, len(ResilienceRates))
	}
	if len(ResilienceRates) < 3 {
		t.Fatalf("sweep must cover at least 3 injection rates, has %d", len(ResilienceRates))
	}
	// The highest rate must actually inject: the ECC-corrected column
	// ("base/omega") cannot still read 0/0.
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[5] == "0/0" {
		t.Fatalf("highest rate injected nothing: %v", last)
	}
}

func TestRunSafeReturnsRunnerTable(t *testing.T) {
	spec := Spec{ID: "ok", Run: func(o Options) *Table {
		tb := &Table{ID: "ok", Title: "fine", Header: []string{"x"}}
		tb.AddRow("1")
		return tb
	}}
	tbl := RunSafe(context.Background(), spec, Options{}, time.Second)
	if tbl.Failed || tbl.Title != "fine" {
		t.Fatalf("healthy runner mangled: %+v", tbl)
	}
}

func TestRunSafeRecoversPanic(t *testing.T) {
	spec := Spec{ID: "boom", Run: func(o Options) *Table {
		panic("synthetic failure")
	}}
	tbl := RunSafe(context.Background(), spec, Options{}, time.Second)
	if !tbl.Failed {
		t.Fatal("panicking runner must yield a failed table")
	}
	if tbl.ID != "boom" || !strings.Contains(tbl.Title, "synthetic failure") {
		t.Fatalf("failed table lost the diagnosis: %+v", tbl)
	}
	// The stack trace rides along in the notes.
	if len(tbl.Notes) == 0 {
		t.Fatal("failed table should carry the panic stack")
	}
}

func TestRunSafeWatchdog(t *testing.T) {
	spec := Spec{ID: "hang", Run: func(o Options) *Table {
		time.Sleep(5 * time.Second)
		return &Table{ID: "hang"}
	}}
	start := time.Now()
	tbl := RunSafe(context.Background(), spec, Options{}, 30*time.Millisecond)
	if time.Since(start) > 2*time.Second {
		t.Fatal("watchdog did not fire promptly")
	}
	if !tbl.Failed || !strings.Contains(tbl.Title, "watchdog") {
		t.Fatalf("hung runner must be reported as a watchdog failure: %+v", tbl)
	}
}

func TestRunSafeCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := Spec{ID: "never", Run: func(o Options) *Table {
		time.Sleep(5 * time.Second)
		return &Table{ID: "never"}
	}}
	tbl := RunSafe(ctx, spec, Options{}, 0)
	if !tbl.Failed || !strings.Contains(tbl.Title, "cancelled") {
		t.Fatalf("cancelled runner must be reported: %+v", tbl)
	}
}

// TestRunSafePreCancelledNeverRuns: with ctx already done, RunSafe must
// return the cancelled table without starting the runner. An instant
// runner would otherwise race the ctx.Done case of RunSafe's select and
// sometimes win.
func TestRunSafePreCancelledNeverRuns(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var runs atomic.Int64
	spec := Spec{ID: "instant", Run: func(o Options) *Table {
		runs.Add(1)
		return &Table{ID: "instant", Title: "ran"}
	}}
	for i := 0; i < 200; i++ {
		buf := obs.NewBuffer()
		tbl := RunSafe(ctx, spec, Options{Metrics: buf}, 0)
		if !tbl.Failed || !strings.Contains(tbl.Title, "cancelled") {
			t.Fatalf("call %d: pre-cancelled run returned %+v", i, tbl)
		}
		// The cancelled table reaches the sink as harness samples only,
		// ending with the failure marker.
		samples := buf.Drain()
		if n := len(samples); n == 0 || samples[n-1].Name != "failed" {
			t.Fatalf("call %d: samples %+v end without a failed marker", i, samples)
		}
		for _, smp := range samples {
			if smp.Machine != "harness" || smp.Experiment != "instant" {
				t.Fatalf("call %d: non-harness sample %+v", i, smp)
			}
		}
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("runner started %d times on a cancelled context", n)
	}
}

func TestRunSafeNilTable(t *testing.T) {
	spec := Spec{ID: "nil", Run: func(o Options) *Table { return nil }}
	tbl := RunSafe(context.Background(), spec, Options{}, time.Second)
	if !tbl.Failed {
		t.Fatal("nil result must be reported as failed")
	}
}

func TestRegistryHasUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, spec := range Registry() {
		if spec.ID == "" || spec.Run == nil {
			t.Fatalf("incomplete spec %+v", spec)
		}
		if seen[spec.ID] {
			t.Fatalf("duplicate experiment ID %q", spec.ID)
		}
		seen[spec.ID] = true
	}
	if !seen["Resilience R1"] {
		t.Fatal("registry must include the resilience experiment")
	}
}

// TestFormatRowsWiderThanHeader: diagnostic rows may carry more cells than
// the header names; Format must grow its width vector instead of panicking.
func TestFormatRowsWiderThanHeader(t *testing.T) {
	tbl := &Table{ID: "W", Title: "wide", Header: []string{"only"}}
	tbl.AddRow("a", "extra-cell", "another")
	out := tbl.Format()
	for _, want := range []string{"a", "extra-cell", "another"} {
		if !strings.Contains(out, want) {
			t.Fatalf("wide row cell %q missing:\n%s", want, out)
		}
	}
}

func TestFailedTableSplitsDiagnostics(t *testing.T) {
	tbl := FailedTable("X", "bad", "line1\nline2\n")
	if !tbl.Failed || tbl.ID != "X" {
		t.Fatalf("failed table malformed: %+v", tbl)
	}
	if len(tbl.Notes) != 2 {
		t.Fatalf("diagnostics should split into lines: %v", tbl.Notes)
	}
}
