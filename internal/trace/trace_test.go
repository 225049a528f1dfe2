package trace

import (
	"strings"
	"testing"

	"omega/internal/algorithms"
	"omega/internal/core"
	"omega/internal/graph/gen"
	"omega/internal/graph/reorder"
	"omega/internal/ligra"
	"omega/internal/memsys"
)

func TestCollectorAggregates(t *testing.T) {
	c := NewCollector(2)
	a := memsys.Access{Core: 1, Kind: memsys.KindVtxProp, Op: memsys.OpAtomic}
	r := memsys.Result{Latency: 100, Level: memsys.LevelL2Plus, Blocking: true}
	for i := 0; i < 5; i++ {
		c.Record(memsys.Cycles(i), a, r)
	}
	if len(c.events) != 2 {
		t.Fatalf("retained %d events, cap 2", len(c.events))
	}
	rows := c.Summary()
	if len(rows) != 1 || rows[0].Count != 5 || rows[0].AvgLatency != 100 {
		t.Fatalf("summary %+v", rows)
	}
	if q := c.LatencyQuantile(memsys.KindVtxProp, 0.5); q < 64 || q > 128 {
		t.Fatalf("median bucket %d", q)
	}
	if c.LatencyQuantile(memsys.KindEdgeList, 0.5) != 0 {
		t.Fatal("unseen kind should report 0")
	}
}

// TestCollectorCells checks the per-(kind, level) cells and the per-kind
// latency histograms across two kinds and levels.
func TestCollectorCells(t *testing.T) {
	c := NewCollector(0)
	a := memsys.Access{Kind: memsys.KindVtxProp}
	c.Record(0, a, memsys.Result{Latency: 3, Level: memsys.LevelL1})
	c.Record(0, a, memsys.Result{Latency: 5, Level: memsys.LevelL1})
	c.Record(0, memsys.Access{Kind: memsys.KindEdgeList}, memsys.Result{Latency: 100, Level: memsys.LevelL2Plus})
	if v := c.cells[memsys.KindVtxProp][memsys.LevelL1]; v.count != 2 || v.latency != 8 {
		t.Fatalf("cell = %+v, want count 2 latency 8", v)
	}
	rows := c.Summary()
	if len(rows) != 2 || rows[0].Kind != memsys.KindVtxProp || rows[0].AvgLatency != 4 {
		t.Fatalf("summary %+v, want vtxProp/L1 first with avg 4", rows)
	}
	if q := c.LatencyQuantile(memsys.KindEdgeList, 0.5); q < 100 {
		t.Fatalf("p50 = %d, want >= 100", q)
	}
	if q := c.LatencyQuantile(memsys.KindNGraphData, 0.5); q != 0 {
		t.Fatalf("unobserved kind quantile = %d, want 0", q)
	}
	// vtxProp latencies 3 and 5 land in the <=4 and <=8 buckets.
	if p50, p100 := c.LatencyQuantile(memsys.KindVtxProp, 0.5), c.LatencyQuantile(memsys.KindVtxProp, 1); p50 != 4 || p100 != 8 {
		t.Fatalf("vtxProp p50/p100 = %d/%d, want 4/8", p50, p100)
	}
	if len(c.events) != 0 {
		t.Fatalf("MaxEvents 0 retained %d events", len(c.events))
	}
}

func TestCollectorRendering(t *testing.T) {
	c := NewCollector(10)
	c.Record(1, memsys.Access{Kind: memsys.KindEdgeList, Op: memsys.OpRead},
		memsys.Result{Latency: 1, Level: memsys.LevelL1})
	var sum, tsv strings.Builder
	if err := c.WriteSummary(&sum); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sum.String(), "edgeList") || !strings.Contains(sum.String(), "L1") {
		t.Fatalf("summary:\n%s", sum.String())
	}
	if err := c.WriteTSV(&tsv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tsv.String(), "edgeList\tread\tL1\t1") {
		t.Fatalf("tsv:\n%s", tsv.String())
	}
}

func TestTracedSimulation(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 7))
	g = reorder.Apply(g, reorder.Compute(g, reorder.InDegree))
	spec, _ := algorithms.ByName("PageRank")
	_, omCfg := core.ScaledPair(g.NumVertices(), spec.VtxPropBytes, 0.2)
	m := core.NewMachine(omCfg)
	col := NewCollector(1000)
	m.AttachSink(col)
	st := spec.Run(ligra.New(m, g))

	// The trace must account for exactly the accesses the machine counted.
	var total uint64
	for _, r := range col.Summary() {
		total += r.Count
	}
	if total != st.TotalAccesses() {
		t.Fatalf("trace saw %d accesses, machine counted %d", total, st.TotalAccesses())
	}
	// PageRank on OMEGA must show PISC-served vtxProp atomics.
	foundPISC := false
	for _, r := range col.Summary() {
		if r.Kind == memsys.KindVtxProp && r.Level == "PISC" {
			foundPISC = true
		}
	}
	if !foundPISC {
		t.Fatal("no PISC-served accesses in the trace")
	}
	if len(col.events) != 1000 {
		t.Fatalf("event cap not honored: %d", len(col.events))
	}
}

func TestTracerDisabledByDefault(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 7))
	spec, _ := algorithms.ByName("PageRank")
	_, omCfg := core.ScaledPair(g.NumVertices(), spec.VtxPropBytes, 0.2)
	m := core.NewMachine(omCfg)
	// No sink attached: must simply run.
	spec.Run(ligra.New(m, g))
}
