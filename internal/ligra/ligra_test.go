package ligra

import (
	"sort"
	"testing"

	"omega/internal/core"
	"omega/internal/graph"
	"omega/internal/pisc"
)

// sequential runs body once on core 0, as a one-item parallel region.
func sequential(m *core.Machine, body func(ctx *core.Ctx)) {
	m.ParallelForGrain(1, 1, func(ctx *core.Ctx, _ int) { body(ctx) })
}

// testSetup builds a small framework over a diamond graph:
// 0->1, 0->2, 1->3, 2->3 (directed).
func testSetup(t testing.TB) (*Framework, *graph.Graph) {
	t.Helper()
	g := graph.FromEdges(4, false, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3},
	}, "diamond")
	_, cfg := core.ScaledPair(g.NumVertices(), 8, 0.2)
	return New(core.NewMachine(cfg), g), g
}

func TestNewAllocatesCSRRegions(t *testing.T) {
	fw, g := testSetup(t)
	regions := fw.Machine().Regions()
	names := map[string]bool{}
	for _, r := range regions {
		names[r.Name] = true
	}
	for _, want := range []string{"edgeList.outOffsets", "edgeList.outEdges",
		"edgeList.inOffsets", "edgeList.inEdges", "nGraphData"} {
		if !names[want] {
			t.Fatalf("missing region %q", want)
		}
	}
	if fw.NumVertices() != g.NumVertices() {
		t.Fatal("vertex count mismatch")
	}
}

func TestPropArrayFunctional(t *testing.T) {
	fw, _ := testSetup(t)
	p := fw.NewProp("x", 8, pisc.IntValue(7))
	for v := uint32(0); v < 4; v++ {
		if p.Value(v).Int() != 7 {
			t.Fatal("init value lost")
		}
	}
	fw.Configure(pisc.StandardMicrocode("t", pisc.OpSignedAdd, false, false))
	m := fw.Machine()
	sequential(m, func(ctx *core.Ctx) {
		p.Set(ctx, 1, pisc.IntValue(42))
		if p.Get(ctx, 1).Int() != 42 {
			t.Fatal("set/get broken")
		}
		if !p.AtomicUpdate(ctx, 1, pisc.OpSignedAdd, pisc.IntValue(8)) {
			t.Fatal("atomic add should change")
		}
		if p.Value(1).Int() != 50 {
			t.Fatal("atomic result wrong")
		}
		if p.Update(ctx, 1, pisc.OpSignedMin, pisc.IntValue(10)) != true {
			t.Fatal("min update should change")
		}
		if p.Value(1).Int() != 10 {
			t.Fatal("min result wrong")
		}
	})
	if fw.Machine().Stats().Atomics != 1 {
		t.Fatal("atomic not counted")
	}
}

func TestNewPropAfterConfigurePanics(t *testing.T) {
	fw, _ := testSetup(t)
	fw.Configure(pisc.StandardMicrocode("t", pisc.OpNop, false, false))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fw.NewProp("late", 8, 0)
}

func TestVertexSubsetSparse(t *testing.T) {
	fw, _ := testSetup(t)
	s := fw.NewVertexSubsetSparse([]uint32{3, 1, 3, 1})
	if s.Size() != 2 {
		t.Fatalf("size %d, want 2 (dedup)", s.Size())
	}
	if !s.Contains(1) || !s.Contains(3) || s.Contains(0) {
		t.Fatal("membership wrong")
	}
	ids := s.IDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("ids %v", ids)
	}
	if s.isDense {
		t.Fatal("should start sparse")
	}
}

func TestVertexSubsetAllAndEmpty(t *testing.T) {
	fw, _ := testSetup(t)
	all := fw.NewVertexSubsetAll()
	if all.Size() != 4 || !all.isDense {
		t.Fatal("all-subset wrong")
	}
	empty := fw.NewVertexSubsetEmpty()
	if !empty.IsEmpty() {
		t.Fatal("empty subset not empty")
	}
}

func TestSubsetConversions(t *testing.T) {
	fw, _ := testSetup(t)
	s := fw.NewVertexSubsetSparse([]uint32{0, 2})
	fw.toDense(s)
	if !s.isDense || s.Size() != 2 || !s.Contains(2) {
		t.Fatal("toDense broken")
	}
	fw.toSparse(s)
	if s.isDense || s.Size() != 2 || !s.Contains(0) {
		t.Fatal("toSparse broken")
	}
}

// bfsFns returns BFS-style edgeMap functions over a parent prop.
func bfsFns(parents *PropArray) EdgeMapFns {
	unset := uint64(^uint64(0))
	return EdgeMapFns{
		UpdateAtomic: func(ctx *core.Ctx, s, d uint32, w int32) bool {
			return parents.AtomicUpdate(ctx, d, pisc.OpUnsignedCompareSwap,
				pisc.Value(uint64(s)))
		},
		Update: func(ctx *core.Ctx, s, d uint32, w int32) bool {
			return parents.Update(ctx, d, pisc.OpUnsignedCompareSwap,
				pisc.Value(uint64(s)))
		},
		Cond: func(ctx *core.Ctx, d uint32) bool {
			return uint64(parents.Get(ctx, d)) == unset
		},
	}
}

func TestEdgeMapPushTraversal(t *testing.T) {
	fw, _ := testSetup(t)
	parents := fw.NewProp("parents", 4, pisc.Value(^uint64(0)))
	fw.Configure(pisc.StandardMicrocode("bfs", pisc.OpUnsignedCompareSwap, true, true))
	parents.Raw()[0] = pisc.Value(0)
	frontier := fw.NewVertexSubsetSparse([]uint32{0})
	next := fw.EdgeMap(frontier, bfsFns(parents), Push)
	ids := next.IDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("push frontier %v, want [1 2]", ids)
	}
	final := fw.EdgeMap(next, bfsFns(parents), Push)
	if final.Size() != 1 || !final.Contains(3) {
		t.Fatalf("second hop wrong: %v", final.IDs())
	}
	if fw.SparseMaps != 2 || fw.DenseMaps != 0 {
		t.Fatalf("mode counters: %d sparse %d dense", fw.SparseMaps, fw.DenseMaps)
	}
}

func TestEdgeMapDenseForwardMatchesPush(t *testing.T) {
	fwA, _ := testSetup(t)
	pA := fwA.NewProp("p", 4, pisc.Value(^uint64(0)))
	fwA.Configure(pisc.StandardMicrocode("t", pisc.OpUnsignedCompareSwap, true, true))
	pA.Raw()[0] = pisc.Value(0)
	fA := fwA.EdgeMap(fwA.NewVertexSubsetSparse([]uint32{0}), bfsFns(pA), Pull)

	fwB, _ := testSetup(t)
	pB := fwB.NewProp("p", 4, pisc.Value(^uint64(0)))
	fwB.Configure(pisc.StandardMicrocode("t", pisc.OpUnsignedCompareSwap, true, true))
	pB.Raw()[0] = pisc.Value(0)
	fB := fwB.EdgeMap(fwB.NewVertexSubsetSparse([]uint32{0}), bfsFns(pB), Push)

	a, b := fA.IDs(), fB.IDs()
	if len(a) != len(b) {
		t.Fatalf("dense-forward %v vs push %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("dense-forward %v vs push %v", a, b)
		}
	}
}

func TestEdgeMapDensePullVariant(t *testing.T) {
	fw, _ := testSetup(t)
	fw.SetDensePull(true)
	p := fw.NewProp("p", 4, pisc.Value(^uint64(0)))
	fw.Configure(pisc.StandardMicrocode("t", pisc.OpUnsignedCompareSwap, true, true))
	p.Raw()[0] = pisc.Value(0)
	f := fw.EdgeMap(fw.NewVertexSubsetSparse([]uint32{0}), bfsFns(p), Pull)
	ids := f.IDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("pull frontier %v", ids)
	}
	// Pull mode must not issue atomics.
	if fw.Machine().Stats().Atomics != 0 {
		t.Fatal("pull mode issued atomics")
	}
}

func TestEdgeMapAutoSwitches(t *testing.T) {
	fw, _ := testSetup(t)
	p := fw.NewProp("p", 4, pisc.Value(^uint64(0)))
	fw.Configure(pisc.StandardMicrocode("t", pisc.OpUnsignedCompareSwap, true, true))
	p.Raw()[0] = pisc.Value(0)
	// |frontier|+outdeg = 1+2 = 3 > |E|/20 = 0 -> dense.
	fw.EdgeMap(fw.NewVertexSubsetSparse([]uint32{0}), bfsFns(p), Auto)
	if fw.DenseMaps != 1 {
		t.Fatal("tiny graph should pick dense under Ligra's threshold")
	}
}

func TestVertexMapFilters(t *testing.T) {
	fw, _ := testSetup(t)
	fw.Configure(pisc.StandardMicrocode("t", pisc.OpNop, false, false))
	all := fw.NewVertexSubsetAll()
	odd := fw.VertexMap(all, func(ctx *core.Ctx, v uint32) bool { return v%2 == 1 })
	ids := odd.IDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("vertexMap filter %v", ids)
	}
}

func TestForAllVertices(t *testing.T) {
	fw, _ := testSetup(t)
	fw.Configure(pisc.StandardMicrocode("t", pisc.OpNop, false, false))
	count := 0
	fw.ForAllVertices(func(ctx *core.Ctx, v uint32) { count++ })
	if count != 4 {
		t.Fatalf("visited %d, want 4", count)
	}
}

func TestEmitEdgeScans(t *testing.T) {
	fw, _ := testSetup(t)
	fw.Configure(pisc.StandardMicrocode("t", pisc.OpNop, false, false))
	var ins1, ins3 []uint32
	sequential(fw.Machine(), func(ctx *core.Ctx) {
		fw.EmitInEdgeScan(ctx, 1, func(j int, s uint32, w int32) {
			ins1 = append(ins1, s)
		})
		fw.EmitInEdgeScan(ctx, 3, func(j int, s uint32, w int32) {
			ins3 = append(ins3, s)
		})
	})
	if len(ins1) != 1 || ins1[0] != 0 {
		t.Fatalf("in scan of 1: %v", ins1)
	}
	if len(ins3) != 2 || ins3[0] != 1 || ins3[1] != 2 {
		t.Fatalf("in scan of 3: %v", ins3)
	}
}

func TestWeightedEdgeScan(t *testing.T) {
	g := graph.FromEdges(2, false, nil, "w")
	b := graph.NewBuilder(2, false)
	b.SetWeighted()
	b.AddEdge(0, 1, 17)
	g = b.Build("w")
	_, cfg := core.ScaledPair(2, 8, 0.2)
	fw := New(core.NewMachine(cfg), g)
	fw.Configure(pisc.StandardMicrocode("t", pisc.OpNop, false, false))
	var got int32
	sequential(fw.Machine(), func(ctx *core.Ctx) {
		fw.EmitInEdgeScan(ctx, 1, func(j int, s uint32, w int32) { got = w })
	})
	if got != 17 {
		t.Fatalf("weight %d", got)
	}
}

func TestDedupSorted(t *testing.T) {
	out := dedupSorted([]uint32{3, 1, 3, 2, 1})
	if len(out) != 3 || out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Fatalf("dedup %v", out)
	}
	if dedupSorted(nil) != nil {
		t.Fatal("nil in, nil out")
	}
}

func TestFrontierOutDegree(t *testing.T) {
	fw, _ := testSetup(t)
	fw.Configure(pisc.StandardMicrocode("t", pisc.OpNop, false, false))
	s := fw.NewVertexSubsetSparse([]uint32{0, 1})
	if d := fw.frontierOutDegree(s); d != 3 {
		t.Fatalf("outdeg %d, want 3", d)
	}
	fw.toDense(s)
	if d := fw.frontierOutDegree(s); d != 3 {
		t.Fatalf("dense outdeg %d, want 3", d)
	}
}

// Contains reports membership functionally (no simulated access).
func (s *VertexSubset) Contains(v uint32) bool {
	if s.isDense {
		return s.dense[v]
	}
	i := sort.Search(len(s.sparse), func(i int) bool { return s.sparse[i] >= v })
	return i < len(s.sparse) && s.sparse[i] == v
}

// IDs returns the active vertex IDs in ascending order (functional).
func (s *VertexSubset) IDs() []uint32 {
	if !s.isDense {
		return append([]uint32(nil), s.sparse...)
	}
	var ids []uint32
	for v, b := range s.dense {
		if b {
			ids = append(ids, uint32(v))
		}
	}
	return ids
}
