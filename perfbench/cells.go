package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"omega/internal/algorithms"
	"omega/internal/core"
	"omega/internal/graph"
	"omega/internal/graph/gen"
	"omega/internal/graph/reorder"
	"omega/internal/ligra"
	"omega/internal/obs"
)

// coverage is the paper's scratchpad sizing: 20% of the vtxProp bytes.
const coverage = 0.20

// cell is one (algorithm, dataset, machine) simulation.
type cell struct {
	spec algorithms.Spec
	g    *graph.Graph
	cfg  core.Config
}

// cellsWorkload runs a fixed list of algorithms on in-degree-reordered
// R-MAT graphs, each on the baseline and the OMEGA machine. One rep runs
// every cell once through algorithms.Spec.Run.
type cellsWorkload struct {
	scale int
	seed  uint64
	specs []algorithms.Spec
	cells []cell
	// first holds each cell's counter snapshot from the first rep;
	// verify re-derives it from a direct call of the algorithm.
	first  [][]uint64
	counts simCounts
}

func newCells(scale int, seed uint64, names []string) (*cellsWorkload, error) {
	w := &cellsWorkload{scale: scale, seed: seed}
	for _, name := range names {
		spec, ok := algorithms.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown algorithm %q", name)
		}
		w.specs = append(w.specs, spec)
	}
	return w, nil
}

// graphVariant is the dataset variant an algorithm needs, following
// cmd/omega-sim: SSSP runs on the weighted graph.
type graphVariant struct{ undirected, weighted bool }

func variantOf(s algorithms.Spec) graphVariant {
	return graphVariant{s.NeedsUndirected, s.NeedsWeights || s.Name == "SSSP"}
}

func (w *cellsWorkload) setup() (genS, reorderS float64) {
	graphs := map[graphVariant]*graph.Graph{}
	w.cells = w.cells[:0]
	for _, spec := range w.specs {
		v := variantOf(spec)
		g, ok := graphs[v]
		if !ok {
			cfg := gen.DefaultRMAT(w.scale, w.seed)
			cfg.Undirected, cfg.Weighted = v.undirected, v.weighted
			t0 := time.Now()
			g = gen.RMAT(cfg)
			t1 := time.Now()
			g = reorder.Apply(g, reorder.Compute(g, reorder.InDegree))
			genS += t1.Sub(t0).Seconds()
			reorderS += time.Since(t1).Seconds()
			graphs[v] = g
		}
		base, om := core.ScaledPair(g.NumVertices(), spec.VtxPropBytes, coverage)
		w.cells = append(w.cells, cell{spec, g, base}, cell{spec, g, om})
	}
	return genS, reorderS
}

// iterTimer is an obs.Sink that times simulated iterations on the host:
// a machine emits one burst of samples per iteration boundary, so the
// gap between bursts is one iteration's host time. The first interval
// starts when Spec.Run is called and so includes the algorithm's own
// set-up.
type iterTimer struct {
	last time.Time
	iter uint64
	ms   []float64
}

func (t *iterTimer) Sample(s obs.MetricSample) {
	if s.Iteration == t.iter {
		return
	}
	now := time.Now()
	t.ms = append(t.ms, float64(now.Sub(t.last))/float64(time.Millisecond))
	t.last, t.iter = now, s.Iteration
}

func (w *cellsWorkload) threads() int { return 1 }

func (w *cellsWorkload) rep(traced bool, tick func()) repResult {
	r := repResult{hostS: map[string]float64{}}
	var counts simCounts
	snaps := make([][]uint64, len(w.cells))
	h := sha256.New()
	for i, c := range w.cells {
		if i > 0 {
			tick()
		}
		t0 := time.Now()
		m := core.NewMachine(c.cfg)
		t1 := time.Now()
		fw := ligra.New(m, c.g)
		t2 := time.Now()
		var it *iterTimer
		if traced {
			it = &iterTimer{}
			m.AttachSink(it)
			it.last = time.Now()
		}
		c.spec.Run(fw)
		t3 := time.Now()
		r.hostS["core.new_machine.host_s"] += t1.Sub(t0).Seconds()
		r.hostS["ligra.bind.host_s"] += t2.Sub(t1).Seconds()
		r.hostS["algorithms.run.host_s"] += t3.Sub(t2).Seconds()
		if it != nil {
			r.iterMs = append(r.iterMs, it.ms...)
		}
		reg := m.Metrics()
		counts.addRegistry(reg)
		snaps[i] = snapshot(reg)
		for _, v := range snaps[i] {
			h.Write(binary.LittleEndian.AppendUint64(nil, v))
		}
		r.attempted++
	}
	if w.first == nil {
		w.first, w.counts = snaps, counts
	}
	r.fingerprint = hex.EncodeToString(h.Sum(nil))
	return r
}

// snapshot reads every counter of a machine's registry in registration
// order. Gauges are left out: some, like ligra's frontier size, are kept
// only while a sink is attached.
func snapshot(r *obs.Registry) []uint64 {
	var vals []uint64
	r.Each(func(d obs.Desc) {
		if d.Kind == obs.KindCounter && d.Read != nil {
			vals = append(vals, d.Read())
		}
	})
	return vals
}

// verify re-runs every cell by calling the algorithm directly with the
// schedule its Spec.Run bakes in, requires the same registry snapshot as
// the timed cell (so the timed run computed this very result), and
// compares the functional result with the algorithm's reference
// implementation.
func (w *cellsWorkload) verify() (attempted, failed int) {
	for i, c := range w.cells {
		attempted++
		if err := checkCell(c, w.first[i]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s on %s: %v\n", c.spec.Name, c.cfg.Name, err)
			failed++
		}
	}
	return attempted, failed
}

func checkCell(c cell, timed []uint64) error {
	m := core.NewMachine(c.cfg)
	fw := ligra.New(m, c.g)
	g := c.g
	var err error
	switch c.spec.Name {
	case "PageRank":
		res := algorithms.PageRank(fw, algorithms.Params{Iterations: 1})
		err = closeTo(res.Ranks, algorithms.ReferencePageRank(g, 1, 0.85), 1e-9)
	case "SSSP":
		root := algorithms.DefaultRoot(g)
		err = equal(algorithms.SSSP(fw, root).Dist, algorithms.ReferenceSSSP(g, root))
	case "Radii":
		res := algorithms.Radii(fw, 16, 12345)
		err = equal(res.Radii, algorithms.ReferenceRadii(g, res.Sources))
	case "CC":
		err = equal(algorithms.CC(fw).Labels, algorithms.ReferenceCC(g))
	case "TC":
		if got, want := algorithms.TC(fw).Total, algorithms.ReferenceTC(g); got != want {
			err = fmt.Errorf("%d triangles, reference %d", got, want)
		}
	default:
		return fmt.Errorf("no reference check")
	}
	if err != nil {
		return err
	}
	m.Stats()
	if equal(snapshot(m.Metrics()), timed) != nil {
		return fmt.Errorf("direct call's counters differ from the timed Spec.Run cell")
	}
	return nil
}

func equal[T comparable](got, want []T) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("index %d: %v, reference %v", i, got[i], want[i])
		}
	}
	return nil
}

// closeTo compares PageRank vectors with the tolerance the algorithm's
// own tests use.
func closeTo(got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, reference %d", len(got), len(want))
	}
	for i := range want {
		if d := got[i] - want[i]; d > tol || d < -tol {
			return fmt.Errorf("vertex %d: %v, reference %v", i, got[i], want[i])
		}
	}
	return nil
}

func (w *cellsWorkload) report(out metrics) uint64 {
	w.counts.metrics(out)
	suiteMetrics(out, 0, 0, 0, 0, 0)
	return w.counts.accesses
}
