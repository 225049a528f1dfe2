package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"omega/internal/experiments"
	"omega/internal/graph"
	"omega/internal/graph/datasets"
	"omega/internal/graph/reorder"
)

// expectedDigests pins the suite's tables for the default seed at the
// benchmark's full and smoke scales. A change that alters any table —
// deliberately or not — shows as a failed operation until the digest is
// updated here.
var expectedDigests = map[int]string{
	12: "6c08e405ffa9015562b6059a6885b674b908fdbe0ef923757d9ab76c6d6fec7a",
	9:  "e8ad3519b085875acb7f38cbe2c782babde4c77102ea869a0b56b9caee49d7dd",
}

// suiteWorkload runs the full experiment registry through
// experiments.Suite. Set-up builds the standard datasets into a
// datasets.Cache; each pass gets a copy of that cache and a fresh cell
// cache, as one invocation of the suite would.
type suiteWorkload struct {
	scale int
	seed  uint64
	par   int
	// prebuilt holds the datasets set-up built, under the keys the
	// experiments look them up by.
	prebuilt map[datasets.Key]*graph.Graph
	// digest is the table digest every pass must reproduce: the pinned
	// one for the default seed, else the first pass's.
	digest string
	// The harness cache counts of the latest pass.
	cellsBuilt, cellsReplayed, dsHits, dsMisses uint64
	dupRatio                                    float64
}

func newSuite(scale int, seed uint64, par int) *suiteWorkload {
	w := &suiteWorkload{scale: scale, seed: seed, par: par}
	if seed == 42 {
		w.digest = expectedDigests[scale]
	}
	return w
}

func (w *suiteWorkload) options() experiments.Options {
	return experiments.Options{Scale: w.scale, Seed: w.seed}.Defaults()
}

// setup builds every standard dataset the way the experiments ask for
// it: raw (Table I, Ablation A3), and in-degree reordered, unweighted and
// weighted (SSSP). Graphs of other scales or seeds (Extensions E5, E6)
// stay misses the suite builds itself.
func (w *suiteWorkload) setup() (genS, reorderS float64) {
	o := w.options()
	w.prebuilt = map[datasets.Key]*graph.Graph{}
	for _, ds := range experiments.StandardDatasets() {
		for _, weighted := range []bool{false, true} {
			t0 := time.Now()
			raw := ds.Build(o, weighted)
			t1 := time.Now()
			g := reorder.Apply(raw, reorder.Compute(raw, reorder.InDegree))
			genS += t1.Sub(t0).Seconds()
			reorderS += time.Since(t1).Seconds()
			raw.Name, g.Name = ds.Name, ds.Name
			key := datasets.Key{Kind: ds.Name, Scale: o.Scale, Seed: o.Seed, Weighted: weighted}
			if !weighted {
				w.prebuilt[key] = raw
			}
			key.Reordered = true
			w.prebuilt[key] = g
		}
	}
	return genS, reorderS
}

func (w *suiteWorkload) threads() int { return w.par }

// rep runs the whole registry once and checks its tables. The suite is
// one unit of work: it never ticks.
func (w *suiteWorkload) rep(bool, func()) repResult {
	o := w.options()
	o.Parallelism = w.par
	o.Datasets = datasets.New()
	for k, g := range w.prebuilt {
		o.Datasets.GetOrBuild(k, func() *graph.Graph { return g })
	}
	o.Cells = experiments.NewCellCache()
	r := repResult{hostS: map[string]float64{}}
	res := experiments.Suite(context.Background(), experiments.Registry(), o, func(ev experiments.SuiteEvent) {
		r.hostS[experimentWallMetric(ev.ID)] = ev.Wall.Seconds()
	})
	r.attempted = len(res.Tables) + 1 // every table, plus the digest check
	r.failed = res.Failed()
	digest := tablesDigest(res.Tables)
	if w.digest == "" {
		w.digest = digest
	}
	if digest != w.digest {
		fmt.Fprintf(os.Stderr, "perfbench: suite table digest %s, want %s\n", digest, w.digest)
		r.failed++
	}
	cs := o.Cells.Stats()
	w.cellsBuilt, w.cellsReplayed, w.dupRatio = cs.Misses, cs.Hits+cs.Dedups, cs.DuplicateRate()
	w.dsHits, w.dsMisses = 0, 0
	for _, te := range res.Telemetry {
		w.dsHits += te.CacheHits
		w.dsMisses += te.CacheMisses
	}
	r.fingerprint = fmt.Sprint(w.cellsBuilt, w.cellsReplayed, w.dsHits, w.dsMisses)
	return r
}

// tablesDigest hashes every experiment table (the Suite telemetry table,
// whose timings vary, is not among them).
func tablesDigest(tables []*experiments.Table) string {
	h := sha256.New()
	for _, t := range tables {
		data, err := t.JSON()
		if err != nil {
			data = []byte(err.Error())
		}
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verify has nothing left to do: every pass already checked its tables.
func (w *suiteWorkload) verify() (attempted, failed int) { return 0, 0 }

// report adds the harness counts. The suite's simulated counts stay 0:
// its metric stream cannot attribute samples to machines (several
// machines of one experiment share a run label and machine name), so
// per-machine totals are not recoverable from outside.
func (w *suiteWorkload) report(out metrics) uint64 {
	(&simCounts{}).metrics(out)
	suiteMetrics(out, w.cellsBuilt, w.cellsReplayed, w.dupRatio, w.dsHits, w.dsMisses)
	return 0
}

// suiteMetrics reports the experiment harness's caches. The cell
// workloads do not run the harness and report zeros.
func suiteMetrics(out metrics, built, replayed uint64, dupRatio float64, dsHits, dsMisses uint64) {
	out.count("experiments.cells_built", built)
	out.count("experiments.cells_replayed", replayed)
	out.set("experiments.duplicate_cell_ratio", dupRatio, "ratio")
	out.count("graph.datasets.hits", dsHits)
	out.count("graph.datasets.misses", dsMisses)
}
