package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omega/internal/graph"
	"omega/internal/graph/gen"
	"omega/internal/graph/reorder"
)

// TestStandardDatasetsPinned pins the dataset layer directly: one SHA-256
// over the six CSR arrays of every StandardDatasets entry at scale 9,
// seed 42, raw and in-degree-reordered, unweighted and weighted. The
// table goldens only see these graphs through simulated results; this
// test fails on any changed byte of a graph. A mismatch prints the
// regenerated table in full.
func TestStandardDatasetsPinned(t *testing.T) {
	path := filepath.Join("testdata", "golden-scale9-seed42", "datasets.sha256")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s: %v", path, err)
	}
	if got := datasetDigests(Options{Scale: 9, Seed: 42}); got != string(want) {
		t.Errorf("dataset digests diverged from golden %s\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// datasetDigests renders one "digest  dataset/variant" line per dataset
// build of TestStandardDatasetsPinned.
func datasetDigests(o Options) string {
	variants := []struct {
		name                string
		reordered, weighted bool
	}{
		{"raw-unweighted", false, false},
		{"raw-weighted", false, true},
		{"reordered-unweighted", true, false},
		{"reordered-weighted", true, true},
	}
	var b strings.Builder
	for _, ds := range StandardDatasets() {
		for _, v := range variants {
			g := buildDataset(ds, o, v.weighted, v.reordered)
			fmt.Fprintf(&b, "%x  %s/%s\n", csrDigest(g), ds.Name, v.name)
		}
	}
	return b.String()
}

// csrDigest hashes g's CSR arrays in little-endian order.
func csrDigest(g *graph.Graph) []byte {
	h := sha256.New()
	for _, s := range []any{g.OutOffsets, g.OutEdges, g.Weights, g.InOffsets, g.InEdges, g.InWeights} {
		if err := binary.Write(h, binary.LittleEndian, s); err != nil {
			panic(err) // only a non-fixed-size type can fail
		}
	}
	return h.Sum(nil)
}

// TestCellWorkloadInputsPinned pins the graphs that perfbench's cell
// workloads simulate (perfbench/cells.go): R-MAT at seed 42, generated
// and then in-degree reordered, in the four variants those workloads
// build. TestStandardDatasetsPinned stops at scale 9 and perfbench checks
// its cells' algorithm outputs, not their inputs, so without this a
// changed scale-14 graph would pass every test. A mismatch prints the
// regenerated table in full.
func TestCellWorkloadInputsPinned(t *testing.T) {
	path := filepath.Join("testdata", "cell-inputs-seed42.sha256")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s: %v", path, err)
	}
	if got := cellInputDigests(42); got != string(want) {
		t.Errorf("cell input digests diverged from golden %s\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// cellInputDigests renders one "digest  graph/stage" line per graph of
// TestCellWorkloadInputsPinned, raw and reordered.
func cellInputDigests(seed uint64) string {
	variants := []struct {
		name                 string
		scale                int
		undirected, weighted bool
	}{
		{"rmat-14-directed", 14, false, false},
		{"rmat-14-directed-weighted", 14, false, true},
		{"rmat-14-undirected", 14, true, false},
		{"rmat-12-undirected", 12, true, false},
	}
	var b strings.Builder
	for _, v := range variants {
		cfg := gen.DefaultRMAT(v.scale, seed)
		cfg.Undirected, cfg.Weighted = v.undirected, v.weighted
		g := gen.RMAT(cfg)
		fmt.Fprintf(&b, "%x  %s/raw\n", csrDigest(g), v.name)
		g = reorder.Apply(g, reorder.Compute(g, reorder.InDegree))
		fmt.Fprintf(&b, "%x  %s/reordered\n", csrDigest(g), v.name)
	}
	return b.String()
}
