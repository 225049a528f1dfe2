package resilience

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"omega/internal/core"
	"omega/internal/faults"
	"omega/internal/graph"
	"omega/internal/ligra"
	"omega/internal/pisc"
)

func TestOutcomeStrings(t *testing.T) {
	want := map[Outcome]string{
		Clean:                "clean",
		DetectedCorrected:    "detected-corrected",
		DetectedDegraded:     "detected-degraded",
		Crashed:              "crashed",
		SilentDataCorruption: "silent-data-corruption",
	}
	if len(want) != int(NumOutcomes) {
		t.Fatalf("taxonomy drifted: %d names for %d outcomes", len(want), NumOutcomes)
	}
	for o, name := range want {
		if o.String() != name {
			t.Fatalf("%d.String() = %q, want %q", o, o.String(), name)
		}
	}
	if Outcome(99).String() == "" || !strings.Contains(Outcome(99).String(), "99") {
		t.Fatal("out-of-range outcome should still render")
	}
	for _, o := range []Outcome{Clean, DetectedCorrected, DetectedDegraded} {
		if o.failed() {
			t.Fatalf("%v must not trigger recovery", o)
		}
	}
	for _, o := range []Outcome{Crashed, SilentDataCorruption} {
		if !o.failed() {
			t.Fatalf("%v must trigger recovery", o)
		}
	}
}

func vals(fs ...float64) []pisc.Value {
	out := make([]pisc.Value, len(fs))
	for i, f := range fs {
		out[i] = pisc.FloatValue(f)
	}
	return out
}

func TestOutputsMatch(t *testing.T) {
	a := [][]pisc.Value{vals(0.25, 0.5, 0.25)}
	if !outputsMatch(a, [][]pisc.Value{vals(0.25, 0.5, 0.25)}) {
		t.Fatal("identical vectors mismatch")
	}
	// Within relative tolerance.
	if !outputsMatch([][]pisc.Value{vals(0.25*(1+1e-12), 0.5, 0.25)}, a) {
		t.Fatal("within-tolerance drift rejected")
	}
	// Beyond tolerance.
	if outputsMatch([][]pisc.Value{vals(0.25*(1+1e-6), 0.5, 0.25)}, a) {
		t.Fatal("beyond-tolerance drift accepted")
	}
	// NaN never matches anything but itself bit-for-bit being unequal.
	if outputsMatch([][]pisc.Value{vals(math.NaN(), 0.5, 0.25)}, a) {
		t.Fatal("NaN accepted")
	}
	// Shape mismatches.
	if outputsMatch(nil, a) || outputsMatch([][]pisc.Value{vals(0.25)}, a) {
		t.Fatal("shape mismatch accepted")
	}
	// Integer-valued properties (raw small uint64 bit patterns decode to
	// denormal floats) must compare exactly — off-by-one is corruption,
	// not float noise.
	ints := [][]pisc.Value{{pisc.Value(1), pisc.Value(2), pisc.Value(3)}}
	if !outputsMatch(ints, [][]pisc.Value{{pisc.Value(1), pisc.Value(2), pisc.Value(3)}}) {
		t.Fatal("identical ints mismatch")
	}
	if outputsMatch(ints, [][]pisc.Value{{pisc.Value(1), pisc.Value(2), pisc.Value(4)}}) {
		t.Fatal("off-by-one int accepted")
	}
}

// syntheticGolden builds a golden from a baseline stats value so classify
// can be exercised without running a machine.
func syntheticGolden(st core.MachineStats, outputs [][]pisc.Value) *Golden {
	return &Golden{Stats: st, Outputs: outputs, Signature: signatureOf(st)}
}

func TestClassifyTaxonomy(t *testing.T) {
	var base core.MachineStats
	base.Cycles = 1000
	out := [][]pisc.Value{vals(0.5, 0.5)}
	g := syntheticGolden(base, out)

	// Clean: same stats, same outputs, no events.
	if got := classify(base, out, g); got != Clean {
		t.Fatalf("clean run classified %v", got)
	}
	// Detected-corrected: detections fired, outputs and signature intact
	// (the fault log is normalized out of the signature).
	det := base
	det.Faults.DRAMCorrected = 3
	if got := classify(det, out, g); got != DetectedCorrected {
		t.Fatalf("corrected run classified %v", got)
	}
	// Detected-degraded: detections plus permanent scratchpad damage.
	deg := base
	deg.Faults.SPParityErrors = 1
	deg.SPDegraded = 1
	if got := classify(deg, out, g); got != DetectedDegraded {
		t.Fatalf("degraded run classified %v", got)
	}
	// NoC retry-budget exhaustion also counts as degraded.
	gaveUp := base
	gaveUp.Faults.NoCDropped = 1
	gaveUp.Faults.NoCGaveUp = 1
	if got := classify(gaveUp, out, g); got != DetectedDegraded {
		t.Fatalf("gave-up run classified %v", got)
	}
	// SDC by wrong outputs, even with detections present.
	bad := det
	if got := classify(bad, [][]pisc.Value{vals(0.5, 0.75)}, g); got != SilentDataCorruption {
		t.Fatalf("wrong-output run classified %v", got)
	}
	// SDC by escaped DRAM multi-bit flip.
	silent := base
	silent.Faults.DRAMSilent = 1
	if got := classify(silent, out, g); got != SilentDataCorruption {
		t.Fatalf("escaped-ECC run classified %v", got)
	}
	// SDC by timing-signature divergence with zero detections.
	drift := base
	drift.Cycles = 1001
	if got := classify(drift, out, g); got != SilentDataCorruption {
		t.Fatalf("silent timing drift classified %v", got)
	}
	// The same drift WITH a detection is accounted detected-corrected:
	// detected faults legitimately change timing.
	drift.Faults.LineBufGenCatches = 1
	if got := classify(drift, out, g); got != DetectedCorrected {
		t.Fatalf("detected timing drift classified %v", got)
	}
}

// TestSignatureNormalizesFaultFields: two stats differing only in the
// fault log and degradation count must share a signature — those fields
// are supposed to differ under injection.
func TestSignatureNormalizesFaultFields(t *testing.T) {
	var a, b core.MachineStats
	a.Cycles = 42
	b.Cycles = 42
	b.Faults = faults.Events{DRAMCorrected: 9, NoCDropped: 2}
	b.SPDegraded = 5
	if !bytes.Equal(signatureOf(a), signatureOf(b)) {
		t.Fatal("fault fields leaked into the signature")
	}
	b.Cycles = 43
	if bytes.Equal(signatureOf(a), signatureOf(b)) {
		t.Fatal("cycle divergence not visible in the signature")
	}
}

func TestRunReportRecovered(t *testing.T) {
	r := RunReport{First: SilentDataCorruption, Final: Clean}
	if !r.Recovered() {
		t.Fatal("failed-then-clean is a recovery")
	}
	r.Final = Crashed
	if r.Recovered() {
		t.Fatal("still-failed is not a recovery")
	}
	r = RunReport{First: Clean, Final: Clean}
	if r.Recovered() {
		t.Fatal("never-failed is not a recovery")
	}
}

// TestRunGoldenRejectsNilOutputs: a workload that hands the engine no
// output vectors has nothing to validate runs against, so the golden run
// refuses it instead of classifying every run on timing alone.
func TestRunGoldenRejectsNilOutputs(t *testing.T) {
	cfg, _ := core.ScaledPair(4, 8, 0.20)
	w := Workload{
		Name:   "nil-outputs",
		Config: cfg,
		Graph:  graph.FromEdges(4, false, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, "tiny"),
		Run: func(fw *ligra.Framework) (core.MachineStats, [][]pisc.Value) {
			return fw.Machine().Stats(), nil
		},
	}
	if g, err := RunGolden(w, nil); err == nil || !strings.Contains(err.Error(), "no outputs") {
		t.Fatalf("RunGolden = %v, %v; want a no-outputs error", g, err)
	}
}
