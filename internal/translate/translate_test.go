package translate

import (
	"strings"
	"testing"

	"omega/internal/pisc"
)

var ssspProps = []PropDecl{
	{Name: "ShortestLen", TypeSize: 4},
	{Name: "Visited", TypeSize: 4},
}

const ssspSrc = `
// Figure 10 of the paper.
//@omega update
void update(int s, int d, int edgeLen) {
    newShortestLen = ShortestLen[s] + edgeLen;
    ShortestLen[d] = min(ShortestLen[d], newShortestLen);
    Visited[d] = 1;
}
`

func TestTranslateSSSP(t *testing.T) {
	tr, err := Translate(ssspSrc, ssspProps, true, true)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	if tr.FuncName != "update" {
		t.Fatalf("func name %q", tr.FuncName)
	}
	if tr.Op != pisc.OpSignedMin {
		t.Fatalf("op %v, want signed-min", tr.Op)
	}
	if tr.DstProp != "ShortestLen" {
		t.Fatalf("dst %q", tr.DstProp)
	}
	if len(tr.SrcProps) != 1 || tr.SrcProps[0] != "ShortestLen" {
		t.Fatalf("src props %v", tr.SrcProps)
	}
}

func TestTranslateSSSPGeneratesFigure13Code(t *testing.T) {
	tr, err := Translate(ssspSrc, ssspProps, true, true)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(tr.UpdateCode, "\n")
	if !strings.Contains(joined, "OMEGA_MMREG1") || !strings.Contains(joined, "OMEGA_MMREG2") {
		t.Fatalf("Figure 13 memory-mapped stores missing:\n%s", joined)
	}
	cfg := strings.Join(tr.ConfigCode, "\n")
	for _, want := range []string{"OMEGA_OPTYPE", "OMEGA_MICROCODE[0]",
		"start_addr, &ShortestLen[0]", "type_size, 4"} {
		if !strings.Contains(cfg, want) {
			t.Fatalf("config code missing %q:\n%s", want, cfg)
		}
	}
}

func TestTranslatePageRank(t *testing.T) {
	src := `
//@omega update
void prUpdate(int s, int d) {
    next_pagerank[d] += curr_contrib[s];
}
`
	props := []PropDecl{{Name: "next_pagerank", TypeSize: 8}}
	tr, err := Translate(src, props, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Op != pisc.OpFPAdd {
		t.Fatalf("8-byte += should be fp-add, got %v", tr.Op)
	}
	if tr.DstProp != "next_pagerank" {
		t.Fatalf("dst %q", tr.DstProp)
	}
}

func TestTranslateIntegerAdd(t *testing.T) {
	src := `
//@omega update
void kc(int s, int d) {
    Degrees[d] += delta;
}
`
	tr, err := Translate(src, []PropDecl{{Name: "Degrees", TypeSize: 4}}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Op != pisc.OpSignedAdd {
		t.Fatalf("4-byte += should be signed-add, got %v", tr.Op)
	}
}

func TestTranslateBFSCAS(t *testing.T) {
	src := `
//@omega update
void bfs(int s, int d) {
    if (Parents[d] == UNSET) Parents[d] = s;
}
`
	tr, err := Translate(src, []PropDecl{{Name: "Parents", TypeSize: 4}}, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Op != pisc.OpUnsignedCompareSwap {
		t.Fatalf("CAS pattern should map to unsigned-cas, got %v", tr.Op)
	}
}

func TestTranslateOr(t *testing.T) {
	src := `
//@omega update
void radii(int s, int d) {
    NextVisited[d] |= Visited[s];
}
`
	props := []PropDecl{{Name: "NextVisited", TypeSize: 4}, {Name: "Visited", TypeSize: 4}}
	tr, err := Translate(src, props, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Op != pisc.OpOr {
		t.Fatalf("|= should be or, got %v", tr.Op)
	}
	if len(tr.SrcProps) != 1 || tr.SrcProps[0] != "Visited" {
		t.Fatalf("src props %v", tr.SrcProps)
	}
}

func TestTranslateMicrocodeTracksActiveList(t *testing.T) {
	tr, err := Translate(ssspSrc, ssspProps, true, true)
	if err != nil {
		t.Fatal(err)
	}
	hasDense, hasSparse := false, false
	for _, s := range tr.Microcode.Steps {
		if s == pisc.USetActiveDense {
			hasDense = true
		}
		if s == pisc.UAppendActiveSparse {
			hasSparse = true
		}
	}
	if !hasDense || !hasSparse {
		t.Fatal("active-list microcode steps missing")
	}
}

func TestTranslateErrors(t *testing.T) {
	cases := []struct {
		name, src string
		props     []PropDecl
	}{
		{"no annotation", `void f() {}`, nil},
		{"no function", "//@omega update\nint x;", nil},
		{"no update", "//@omega update\nvoid f(int s, int d) { x = 1; }", nil},
		{"mismatched combiner", "//@omega update\nvoid f(int s, int d) { A[d] = min(B[d], 1); }",
			[]PropDecl{{Name: "A", TypeSize: 4}, {Name: "B", TypeSize: 4}}},
		{"undeclared prop", "//@omega update\nvoid f(int s, int d) { X[d] += 1; }", nil},
		{"unsupported combiner", "//@omega update\nvoid f(int s, int d) { A[d] = max(A[d], 1); }",
			[]PropDecl{{Name: "A", TypeSize: 4}}},
	}
	for _, c := range cases {
		if _, err := Translate(c.src, c.props, false, false); err == nil {
			t.Fatalf("%s: expected error", c.name)
		}
	}
}

func TestTranslationMatchesAlgorithmMicrocode(t *testing.T) {
	// The end-to-end §V.F claim: the tool's generated microcode for the
	// Figure 10 SSSP update equals the routine the SSSP implementation
	// loads into the PISCs.
	tr, err := Translate(ssspSrc, ssspProps, true, true)
	if err != nil {
		t.Fatal(err)
	}
	want := pisc.StandardMicrocode("sssp-update", pisc.OpSignedMin, true, true)
	if tr.Microcode.Op != want.Op {
		t.Fatalf("op %v, want %v", tr.Microcode.Op, want.Op)
	}
	if len(tr.Microcode.Steps) != len(want.Steps) {
		t.Fatalf("steps %v, want %v", tr.Microcode.Steps, want.Steps)
	}
	for i := range want.Steps {
		if tr.Microcode.Steps[i] != want.Steps[i] {
			t.Fatalf("step %d: %v, want %v", i, tr.Microcode.Steps[i], want.Steps[i])
		}
	}
	if tr.Microcode.Latency() != want.Latency() {
		t.Fatal("latency model disagrees")
	}
}

func TestRender(t *testing.T) {
	tr, err := Translate(ssspSrc, ssspProps, true, true)
	if err != nil {
		t.Fatal(err)
	}
	out := tr.Render()
	for _, want := range []string{"configuration", "per-edge update", "signed-min"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}
