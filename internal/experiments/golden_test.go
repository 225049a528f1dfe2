package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenBitIdentity regenerates every registered experiment at a
// small fixed configuration (scale 9, seed 42, coverage 0.20) and
// compares the TSV rendering byte-for-byte against goldens committed in
// testdata/. The goldens were produced by the straightforward
// pre-optimization simulator, so this test pins the contract of the
// performance work on the access path, coherence directory, and core
// scheduler: faster, but bit-identical results.
//
// If a deliberate modeling change shifts the numbers, regenerate with:
//
//	go run ./cmd/omega-bench -scale 9 -seed 42 \
//	    -tsv internal/experiments/testdata/golden-scale9-seed42
func TestGoldenBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite golden comparison skipped in -short mode")
	}
	goldenSuite(t, "golden-scale9-seed42", Registry(), Options{Scale: 9, Seed: 42, Coverage: 0.20})
}

// TestGoldenResilienceSecondPoint pins the resilience tables at a second
// point (scale 10, seed 7, fault seed 7). Its R2 campaign runs 9 recovery
// re-executions against 7 at the scale-9 point, so the retry fault streams
// are covered on more than one configuration. Regenerate with:
//
//	go run ./cmd/omega-bench -scale 10 -seed 7 -fault-seed 7 \
//	    -only Resilience -tsv internal/experiments/testdata/golden-resilience-scale10-seed7
//
// (and delete the suite.tsv it also writes).
func TestGoldenResilienceSecondPoint(t *testing.T) {
	var specs []Spec
	for _, id := range []string{"Resilience R1", "Resilience R2"} {
		spec, ok := SpecByID(id)
		if !ok {
			t.Fatalf("unknown spec %q", id)
		}
		specs = append(specs, spec)
	}
	goldenSuite(t, "golden-resilience-scale10-seed7", specs,
		Options{Scale: 10, Seed: 7, Coverage: 0.20, FaultSeed: 7})
}

// goldenSuite runs each spec at opts and compares its TSV rendering
// byte-for-byte against testdata/<dir>/<spec id>.tsv.
func goldenSuite(t *testing.T, dir string, specs []Spec, opts Options) {
	for _, spec := range specs {
		spec := spec
		t.Run(strings.ReplaceAll(spec.ID, " ", "_"), func(t *testing.T) {
			name := strings.ReplaceAll(strings.ToLower(spec.ID), " ", "_") + ".tsv"
			path := filepath.Join("testdata", dir, name)
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s: %v", path, err)
			}
			tbl := spec.Run(opts)
			if tbl == nil {
				t.Fatal("experiment returned nil table")
			}
			if tbl.Failed {
				t.Fatalf("experiment failed: %s", tbl.Title)
			}
			got := tbl.TSV()
			if got != string(want) {
				t.Errorf("output diverged from golden %s\ngot:\n%s\nwant:\n%s",
					path, got, want)
			}
		})
	}
}
