package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"omega/internal/graph/datasets"
)

// TestRunVariantsOrder checks that results come back in declaration
// order on both the concurrent and the serial path.
func TestRunVariantsOrder(t *testing.T) {
	fns := make([]func() int, 16)
	for i := range fns {
		fns[i] = func() int { return i * i }
	}
	for _, serial := range []bool{false, true} {
		got := runVariants(Options{serialVariants: serial}, fns...)
		for i, v := range got {
			if v != i*i {
				t.Fatalf("serial=%v: variant %d returned %d, want %d", serial, i, v, i*i)
			}
		}
	}
}

// TestRunVariantsPanic checks that a panicking variant goroutine
// re-raises on the caller — after all variants finish — carrying the
// original value and stack.
func TestRunVariantsPanic(t *testing.T) {
	finished := false
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected a re-raised panic")
			}
			vp, ok := r.(*variantPanic)
			if !ok {
				t.Fatalf("recovered %T, want *variantPanic", r)
			}
			s := vp.String()
			if !strings.Contains(s, "boom") || !strings.Contains(s, "goroutine") {
				t.Fatalf("panic rendering missing value or stack: %q", s)
			}
		}()
		runVariants(Options{},
			func() int { panic("boom") },
			func() int { finished = true; return 1 },
		)
	}()
	if !finished {
		t.Fatal("healthy sibling variant did not run to completion")
	}
}

// TestRunVariantsPanicReachesRunSafe checks the harness contract: a
// variant panic inside a runner surfaces as a Failed table through
// RunSafe, exactly like a sequential runner's panic.
func TestRunVariantsPanicReachesRunSafe(t *testing.T) {
	spec := Spec{ID: "panicky", Run: func(o Options) *Table {
		runVariants(o, func() int { panic("variant exploded") }, func() int { return 0 })
		return &Table{ID: "unreachable"}
	}}
	tbl := RunSafe(context.Background(), spec, Options{}, time.Minute)
	if !tbl.Failed {
		t.Fatal("expected a Failed table")
	}
	joined := tbl.Title + strings.Join(tbl.Notes, "\n")
	if !strings.Contains(joined, "variant exploded") {
		t.Fatalf("failure report does not mention the variant panic: %s", joined)
	}
}

// TestVariantConcurrencyMatchesSerial is the race-regression test for
// the per-variant fan-out: experiments whose machine variants run on
// concurrent goroutines over a shared cached graph must produce tables
// identical to the sequential harness. Run under -race (CI does), this
// also proves the variants share no mutable machine state.
func TestVariantConcurrencyMatchesSerial(t *testing.T) {
	base := Options{Scale: 9, Seed: 42, Datasets: datasets.New()}
	for _, spec := range []Spec{
		{"Figure 15", Figure15},                 // runPair (two-variant fan-out)
		{"Figure 5", Figure5},                   // per-cell fan-out over one shared dataset
		{"Ablation A1", AblationScratchpadOnly}, // three-arm runMachines
	} {
		o := base
		par := spec.Run(o)
		o.serialVariants = true
		ser := spec.Run(o)
		if !reflect.DeepEqual(par, ser) {
			t.Errorf("%s: concurrent-variant table differs from serial\nconcurrent:\n%s\nserial:\n%s",
				spec.ID, par.Format(), ser.Format())
		}
	}
}
