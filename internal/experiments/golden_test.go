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
	goldenSuite(t, Options{Scale: 9, Seed: 42, Coverage: 0.20})
}

func goldenSuite(t *testing.T, opts Options) {
	for _, spec := range Registry() {
		spec := spec
		t.Run(strings.ReplaceAll(spec.ID, " ", "_"), func(t *testing.T) {
			name := strings.ReplaceAll(strings.ToLower(spec.ID), " ", "_") + ".tsv"
			path := filepath.Join("testdata", "golden-scale9-seed42", name)
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
