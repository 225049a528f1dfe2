package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omega/internal/obs"
)

// metricsGoldenSpecs is the representative subset re-run with a metrics
// sink attached: it covers the plain two-machine path (Figure 14), the
// TMAM breakdown (Figure 3), the vtxProp access-skew runs (Figure 4b on
// the rmat/apu baselines, Figure 5 across the whole baseline grid), the
// concurrent-variant path (Ablation A3), and a machine-less experiment
// (Table I) that emits only harness samples. The full-registry no-sink
// comparison is TestGoldenBitIdentity.
var metricsGoldenSpecs = []string{
	"Table I", "Figure 3", "Figure 4b", "Figure 5", "Figure 14", "Ablation A3",
}

// metricsDigestPath pins the metric streams of metricsGoldenSpecs at
// scale 9, seed 42: one SHA-256 per experiment over its TSV-encoded
// stream, in sha256sum format keyed by the golden's file name. Digests
// stand in for the streams themselves because Figure 14's alone is
// 1.3 MB. A mismatch prints the new digest; the stream it hashes is what
// omega-bench -scale 9 -seed 42 -only <ID> -metrics <file>.tsv writes.
var metricsDigestPath = filepath.Join("testdata", "golden-scale9-seed42", "metrics.sha256")

// checkMetricsDigest compares the TSV encoding of an experiment's
// sample stream against its pinned digest. A missing digest file or
// entry fails the test: the streams must always be pinned.
func checkMetricsDigest(t *testing.T, id string, samples []obs.MetricSample) {
	t.Helper()
	data, err := os.ReadFile(metricsDigestPath)
	if err != nil {
		t.Fatalf("missing metric-stream digests: %v", err)
	}
	name := strings.ReplaceAll(strings.ToLower(id), " ", "_") + ".tsv"
	want := ""
	for _, line := range strings.Split(string(data), "\n") {
		if sum, file, ok := strings.Cut(line, "  "); ok && file == name {
			want = sum
		}
	}
	if want == "" {
		t.Fatalf("%s has no digest for %s", metricsDigestPath, name)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(encodeTSV(t, samples)))); got != want {
		t.Errorf("metric stream of %s diverged from %s\ngot:  %s\nwant: %s",
			id, metricsDigestPath, got, want)
	}
}

// TestGoldenBitIdentityWithMetrics pins the observer-effect contract:
// attaching a metrics sink must not shift a single simulated number.
// Each experiment in the subset runs under RunSafe with a sink attached
// and its TSV rendering is compared byte-for-byte against the same
// goldens the no-sink test uses; the sample stream must match its
// pinned digest.
func TestGoldenBitIdentityWithMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("golden comparison skipped in -short mode")
	}
	for _, id := range metricsGoldenSpecs {
		spec, ok := SpecByID(id)
		if !ok {
			t.Fatalf("unknown spec %q", id)
		}
		t.Run(strings.ReplaceAll(id, " ", "_"), func(t *testing.T) {
			name := strings.ReplaceAll(strings.ToLower(id), " ", "_") + ".tsv"
			path := filepath.Join("testdata", "golden-scale9-seed42", name)
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s: %v", path, err)
			}
			buf := obs.NewBuffer()
			opts := Options{Scale: 9, Seed: 42, Coverage: 0.20, Metrics: buf}
			tbl := RunSafe(context.Background(), spec, opts, 0)
			if tbl.Failed {
				t.Fatalf("experiment failed: %s", tbl.Title)
			}
			if got := tbl.TSV(); got != string(want) {
				t.Errorf("output diverged from golden %s with metrics attached\ngot:\n%s\nwant:\n%s",
					path, got, want)
			}
			checkMetricsDigest(t, id, buf.Drain())
		})
	}
}

// TestSuiteMetricsDeterminism pins the sink-ordering contract: a
// parallel suite run and a sequential one must deliver byte-identical
// sample streams to the user's sink — per-run buffers are sorted
// canonically and flushed in spec order regardless of worker
// interleaving.
func TestSuiteMetricsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run suite comparison skipped in -short mode")
	}
	var specs []Spec
	for _, id := range metricsGoldenSpecs {
		spec, _ := SpecByID(id)
		specs = append(specs, spec)
	}
	encode := func(parallelism int) []byte {
		buf := obs.NewBuffer()
		opts := Options{
			Scale: 9, Seed: 42, Coverage: 0.20,
			Parallelism: parallelism, Metrics: buf,
		}
		res := Suite(context.Background(), specs, opts, nil)
		if n := res.Failed(); n > 0 {
			t.Fatalf("suite at parallelism %d: %d experiments failed", parallelism, n)
		}
		var out bytes.Buffer
		w := obs.NewJSONLWriter(&out)
		for _, s := range buf.Drain() {
			w.Sample(s)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	seq := encode(1)
	par := encode(4)
	if !bytes.Equal(seq, par) {
		t.Errorf("parallel suite sample stream diverged from sequential\nsequential %d bytes, parallel %d bytes",
			len(seq), len(par))
	}
	if len(seq) == 0 {
		t.Fatal("suite emitted no samples")
	}
}

// TestLevelCountConservation checks a conservation law on every cell a
// scale-9 suite builds: each access issued is served by exactly one
// hierarchy level, so in a cell's final samples (its last iteration) the
// level_count metrics summed over levels equal the accesses metrics
// summed over kinds. Each cell's stream is read from the suite's cell
// cache, where it is stored apart from every other cell's.
func TestLevelCountConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite skipped in -short mode")
	}
	cells := NewCellCache()
	opts := Options{Scale: 9, Seed: 42, Coverage: 0.20, Cells: cells}
	if n := Suite(context.Background(), Registry(), opts, nil).Failed(); n > 0 {
		t.Fatalf("%d experiments failed", n)
	}
	checked := 0
	for key, e := range cells.entries {
		if !e.ok {
			continue
		}
		var last uint64
		for _, s := range e.cell.samples {
			last = max(last, s.Iteration)
		}
		var levels, accesses uint64
		for _, s := range e.cell.samples {
			if s.Iteration != last || s.Component != "machine" {
				continue
			}
			switch s.Name {
			case "level_count":
				levels += s.Value
			case "accesses":
				accesses += s.Value
			}
		}
		if levels != accesses || accesses == 0 {
			t.Errorf("%s %s on %s: level counts sum to %d, accesses to %d",
				key.Workload, key.Config.Name, key.Dataset.Kind, levels, accesses)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("the suite built no cells")
	}
	t.Logf("%d cells checked", checked)
}
