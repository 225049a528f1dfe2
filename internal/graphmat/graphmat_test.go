package graphmat

import (
	"math"
	"testing"

	"omega/internal/algorithms"
	"omega/internal/core"
	"omega/internal/graph"
	"omega/internal/graph/gen"
	"omega/internal/graph/reorder"
	"omega/internal/pisc"
)

// inf is the unreachable sentinel for distance programs.
const inf = int64(1) << 60

// distanceProgram is the shared shape of BFS/SSSP: signed-min reduction of
// (source distance + step).
func distanceProgram(name string, root uint32, step func(w int32) int64) VertexProgram {
	return VertexProgram{
		Name:     name,
		ReduceOp: pisc.OpSignedMin,
		Identity: pisc.IntValue(inf),
		InitProp: func(v uint32) pisc.Value {
			if v == root {
				return pisc.IntValue(0)
			}
			return pisc.IntValue(inf)
		},
		SendMessage: func(src pisc.Value, w int32) (pisc.Value, bool) {
			if src.Int() >= inf {
				return 0, false
			}
			return pisc.IntValue(src.Int() + step(w)), true
		},
		Apply: func(v uint32, old, reduced pisc.Value) (pisc.Value, bool) {
			if reduced.Int() < old.Int() {
				return reduced, true
			}
			return old, false
		},
	}
}

// runDistance runs a distance program from root on the engine's frontier
// path and returns the final distances (inf for unreachable).
func runDistance(m *core.Machine, g *graph.Graph, name string, root uint32, step func(w int32) int64) []int64 {
	e := New(m, g, distanceProgram(name, root, step))
	e.Run([]uint32{root}, g.NumVertices()+1)
	out := make([]int64, g.NumVertices())
	for v := range out {
		out[v] = e.prop.Value(uint32(v)).Int()
	}
	return out
}

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := gen.RMAT(gen.DefaultRMAT(9, 17))
	return reorder.Apply(g, reorder.Compute(g, reorder.InDegree))
}

func machines(g *graph.Graph) (*core.Machine, *core.Machine) {
	// GraphMat's footprint is two 8-byte vtxProps per vertex (property +
	// message accumulator).
	b, o := core.ScaledPair(g.NumVertices(), 16, 0.2)
	return core.NewMachine(b), core.NewMachine(o)
}

func TestPageRankMatchesReference(t *testing.T) {
	g := testGraph(t)
	want := algorithms.ReferencePageRank(g, 2, 0.85)
	mb, mo := machines(g)
	for _, m := range []*core.Machine{mb, mo} {
		got := RunPageRank(m, g, 2, 0.85)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-9 {
				t.Fatalf("%s: rank[%d] = %v, want %v", m.Config().Name, v, got[v], want[v])
			}
		}
	}
}

func TestBaselineGraphMatIssuesNoAtomics(t *testing.T) {
	// GraphMat's baseline discipline: partitioned destinations, zero
	// atomics (§IV). On OMEGA the translated reduce is offloaded instead.
	g := testGraph(t)
	mb, mo := machines(g)
	RunPageRank(mb, g, 1, 0.85)
	if st := mb.Stats(); st.Atomics != 0 {
		t.Fatalf("baseline GraphMat must not issue atomics, got %d", st.Atomics)
	}
	RunPageRank(mo, g, 1, 0.85)
	if st := mo.Stats(); st.PISCOps == 0 {
		t.Fatal("OMEGA GraphMat should offload its reduces to the PISCs")
	}
}

func TestBFSMatchesReference(t *testing.T) {
	g := testGraph(t)
	root := algorithms.DefaultRoot(g)
	want := algorithms.ReferenceBFS(g, root)
	mb, mo := machines(g)
	for _, m := range []*core.Machine{mb, mo} {
		got := runDistance(m, g, "gm-bfs", root, func(int32) int64 { return 1 })
		for v := range want {
			level := ^uint32(0)
			if got[v] < inf {
				level = uint32(got[v])
			}
			if level != want[v] {
				t.Fatalf("%s: level[%d] = %d, want %d", m.Config().Name, v, level, want[v])
			}
		}
	}
}

func TestSSSPMatchesReference(t *testing.T) {
	cfg := gen.DefaultRMAT(9, 21)
	cfg.Weighted = true
	g := gen.RMAT(cfg)
	g = reorder.Apply(g, reorder.Compute(g, reorder.InDegree))
	root := algorithms.DefaultRoot(g)
	want := algorithms.ReferenceSSSP(g, root)
	_, mo := machines(g)
	got := runDistance(mo, g, "gm-sssp", root, func(w int32) int64 { return int64(w) })
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestRunConvergence(t *testing.T) {
	g := testGraph(t)
	_, mo := machines(g)
	root := algorithms.DefaultRoot(g)
	prog := distanceProgram("conv", root, func(int32) int64 { return 1 })
	e := New(mo, g, prog)
	res := e.Run([]uint32{root}, g.NumVertices()+1)
	if !res.Converged {
		t.Fatal("BFS-style program must converge")
	}
	if res.Iterations == 0 || res.Iterations > g.NumVertices() {
		t.Fatalf("iterations %d implausible", res.Iterations)
	}
}

func TestRunRespectsMaxIters(t *testing.T) {
	g := testGraph(t)
	_, mo := machines(g)
	prog := distanceProgram("bounded", algorithms.DefaultRoot(g), func(int32) int64 { return 1 })
	e := New(mo, g, prog)
	res := e.Run([]uint32{algorithms.DefaultRoot(g)}, 1)
	if res.Iterations != 1 {
		t.Fatalf("max iters ignored: %d", res.Iterations)
	}
}

func TestEmptyActiveSetStopsImmediately(t *testing.T) {
	g := testGraph(t)
	_, mo := machines(g)
	prog := distanceProgram("idle", 0, func(int32) int64 { return 1 })
	e := New(mo, g, prog)
	res := e.Run([]uint32{}, 10)
	if res.Iterations != 0 || !res.Converged {
		t.Fatalf("empty frontier should converge instantly: %+v", res)
	}
}

func TestOMEGABenefitsGraphMatToo(t *testing.T) {
	// The §V.F framework-independence claim: OMEGA accelerates GraphMat
	// as well, despite its atomic-free update discipline.
	g := reorder.Apply(gen.RMAT(gen.DefaultRMAT(11, 17)),
		reorder.Compute(gen.RMAT(gen.DefaultRMAT(11, 17)), reorder.InDegree))
	mb, mo := machines(g)
	RunPageRank(mb, g, 1, 0.85)
	RunPageRank(mo, g, 1, 0.85)
	base := mb.Stats()
	om := mo.Stats()
	if om.Speedup(base) < 1.1 {
		t.Fatalf("OMEGA should accelerate GraphMat PageRank: %.2fx", om.Speedup(base))
	}
	if om.SPAccesses == 0 || om.SrcBufHitRate == 0 {
		t.Fatal("GraphMat's gather should exercise scratchpads and source buffers")
	}
}
