package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// cheapOpts keeps test runtime low.
func cheapOpts() Options { return Options{Scale: 11, Seed: 42, Coverage: 0.20} }

func cell(t *Table, row, col int) string { return t.Rows[row][col] }

func cellFloat(tb testing.TB, t *Table, row, col int) float64 {
	tb.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell(t, row, col), "%"), 64)
	if err != nil {
		tb.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, cell(t, row, col), err)
	}
	return v
}

func findRow(t *Table, name string) int {
	for i, r := range t.Rows {
		if r[0] == name {
			return i
		}
	}
	return -1
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.Defaults()
	if o.Scale == 0 || o.Seed == 0 || o.Coverage == 0 {
		t.Fatalf("defaults not filled: %+v", o)
	}
}

func TestTableFormatAndTSV(t *testing.T) {
	tbl := &Table{ID: "X", Title: "y", Header: []string{"a", "b"}}
	tbl.AddRow("v", 1.5)
	txt := tbl.Format()
	if !strings.Contains(txt, "X") || !strings.Contains(txt, "1.50") {
		t.Fatalf("format: %s", txt)
	}
	tsv := tbl.TSV()
	if !strings.Contains(tsv, "a\tb") || !strings.Contains(tsv, "v\t1.50") {
		t.Fatalf("tsv: %s", tsv)
	}
}

func TestTableJSON(t *testing.T) {
	tbl := &Table{ID: "X", Title: "y", Header: []string{"a"}, Notes: []string{"n"}}
	tbl.AddRow("v")
	data, err := tbl.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\"id\": \"X\"", "\"rows\"", "\"n\""} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("json missing %s:\n%s", want, data)
		}
	}
}

func TestAblationPrefetcherShape(t *testing.T) {
	tbl := AblationPrefetcher(cheapOpts())
	for i := range tbl.Rows {
		if sp := cellFloat(t, tbl, i, 2); sp < 1.2 {
			t.Fatalf("row %d: OMEGA must survive a prefetching baseline: %.2f", i, sp)
		}
	}
}

func TestBuildFamily(t *testing.T) {
	for _, fam := range []string{"rmat", "ba", "er", "road", "ws"} {
		g, err := BuildFamily(fam, 9, 3, false, false)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: invalid graph: %v", fam, err)
		}
	}
	if _, err := BuildFamily("nope", 9, 3, false, false); err == nil {
		t.Fatal("unknown family should error")
	}
	if _, err := BuildFamily("rmat", 99, 3, false, false); err == nil {
		t.Fatal("absurd scale should error")
	}
}

// TestCheckScale pins the generator scale range [2, 30], edges included.
func TestCheckScale(t *testing.T) {
	for _, s := range []int{2, 13, 30} {
		if err := CheckScale(s); err != nil {
			t.Errorf("scale %d rejected: %v", s, err)
		}
	}
	for _, s := range []int{-1, 0, 1, 31} {
		if err := CheckScale(s); err == nil {
			t.Errorf("scale %d accepted", s)
		}
	}
}

func TestTableChart(t *testing.T) {
	tbl := &Table{ID: "F", Title: "t", Header: []string{"ds", "speedup"}}
	tbl.AddRow("a", 2.0)
	tbl.AddRow("b", 1.0)
	c := tbl.Chart(1, 10)
	if !strings.Contains(c, "##########") {
		t.Fatalf("max bar should span full width:\n%s", c)
	}
	if !strings.Contains(c, "#####\n") {
		t.Fatalf("half bar missing:\n%s", c)
	}
	empty := &Table{ID: "E", Title: "e", Header: []string{"x", "y"}}
	empty.AddRow("a", "not-a-number")
	if out := empty.Chart(1, 10); strings.Contains(out, "#") {
		t.Fatal("non-numeric column should render no bars")
	}
}

func TestStandardDatasetsResolve(t *testing.T) {
	if len(StandardDatasets()) != 5 {
		t.Fatalf("want 5 datasets")
	}
	for _, ds := range StandardDatasets() {
		got, ok := DatasetByName(ds.Name)
		if !ok || got.Name != ds.Name {
			t.Fatalf("dataset %q does not resolve", ds.Name)
		}
	}
	if _, ok := DatasetByName("nope"); ok {
		t.Fatal("unknown dataset resolved")
	}
}

func TestTable1Classifications(t *testing.T) {
	tbl := Table1(cheapOpts())
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows %d", len(tbl.Rows))
	}
	for _, ds := range StandardDatasets() {
		i := findRow(tbl, ds.Name)
		if i < 0 {
			t.Fatalf("dataset %s missing", ds.Name)
		}
		pl := cell(tbl, i, 7)
		want := "no"
		if ds.PowerLaw {
			want = "yes"
		}
		if pl != want {
			t.Fatalf("%s power-law = %s, want %s", ds.Name, pl, want)
		}
	}
	// Road connectivity must be far below the power-law sets (Table I).
	road := cellFloat(t, tbl, findRow(tbl, "road"), 5)
	rmat := cellFloat(t, tbl, findRow(tbl, "rmat"), 5)
	if road >= 45 || rmat <= 60 {
		t.Fatalf("connectivity shape wrong: road %.0f rmat %.0f", road, rmat)
	}
}

func TestTable2HasAllAlgorithms(t *testing.T) {
	tbl := Table2(cheapOpts())
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows %d, want 8", len(tbl.Rows))
	}
	// PageRank's measured atomic share must exceed BFS's (Table II:
	// high vs low).
	pr := findRow(tbl, "PageRank")
	bfs := findRow(tbl, "BFS")
	prAtomic, _ := strconv.ParseFloat(strings.Fields(cell(tbl, pr, 2))[0], 64)
	bfsAtomic, _ := strconv.ParseFloat(strings.Fields(cell(tbl, bfs, 2))[0], 64)
	if prAtomic <= bfsAtomic {
		t.Fatalf("PageRank %%atomic (%.1f) should exceed BFS (%.1f)", prAtomic, bfsAtomic)
	}
}

func TestTable3ListsFourMachines(t *testing.T) {
	tbl := Table3(cheapOpts())
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows %d, want 4 (paper + scaled pairs)", len(tbl.Rows))
	}
}

func TestTable4NodeTotals(t *testing.T) {
	tbl := Table4(cheapOpts())
	i := findRow(tbl, "Node total")
	if i < 0 {
		t.Fatal("no node total row")
	}
	basePower := cellFloat(t, tbl, i, 1)
	omPower := cellFloat(t, tbl, i, 3)
	if basePower < 5 || basePower > 7 || omPower < 5 || omPower > 7 {
		t.Fatalf("node power out of Table IV band: %.2f / %.2f", basePower, omPower)
	}
}

func TestFigure3MemoryDominates(t *testing.T) {
	tbl := Figure3(cheapOpts())
	pr := findRow(tbl, "PageRank")
	tc := findRow(tbl, "TC")
	if pr < 0 || tc < 0 {
		t.Fatal("rows missing")
	}
	if cellFloat(t, tbl, pr, 4) < 50 {
		t.Fatalf("PageRank should be heavily memory bound: %s", cell(tbl, pr, 4))
	}
	if cellFloat(t, tbl, tc, 4) > 50 {
		t.Fatalf("TC should be compute bound: %s", cell(tbl, tc, 4))
	}
}

func TestFigure4bPowerLawSkew(t *testing.T) {
	tbl := Figure4b(cheapOpts())
	pr := findRow(tbl, "PageRank")
	if share := cellFloat(t, tbl, pr, 2); share < 60 {
		t.Fatalf("PageRank top-20%% share %.0f should be high on rmat", share)
	}
}

func TestFigure14PowerLawBeatsRoad(t *testing.T) {
	o := cheapOpts()
	tbl := Figure14(o)
	rmat := findRow(tbl, "rmat")
	road := findRow(tbl, "road")
	prRmat := cellFloat(t, tbl, rmat, 1)
	prRoad := cellFloat(t, tbl, road, 1)
	if prRmat <= 1.2 {
		t.Fatalf("rmat PageRank speedup %.2f should be well above 1", prRmat)
	}
	if prRoad >= prRmat {
		t.Fatalf("road (%.2f) should gain less than rmat (%.2f)", prRoad, prRmat)
	}
}

func TestFigure15OmegaWins(t *testing.T) {
	tbl := Figure15(cheapOpts())
	for i := range tbl.Rows {
		base := cellFloat(t, tbl, i, 1)
		om := cellFloat(t, tbl, i, 2)
		if om <= base {
			t.Fatalf("%s: OMEGA LLC %.1f should beat baseline %.1f",
				cell(tbl, i, 0), om, base)
		}
	}
}

func TestFigure17TrafficShape(t *testing.T) {
	tbl := Figure17(cheapOpts())
	rmat := findRow(tbl, "rmat")
	if red := cellFloat(t, tbl, rmat, 3); red < 1.5 {
		t.Fatalf("rmat traffic reduction %.2f should be clear", red)
	}
}

func TestFigure19Monotone(t *testing.T) {
	tbl := Figure19(cheapOpts())
	// PageRank rows come first: speedup must not increase as coverage
	// shrinks.
	s20 := cellFloat(t, tbl, 0, 3)
	s5 := cellFloat(t, tbl, 2, 3)
	if s5 > s20+0.05 {
		t.Fatalf("smaller scratchpads cannot help: 20%%=%.2f 5%%=%.2f", s20, s5)
	}
}

func TestFigure20Scenarios(t *testing.T) {
	tbl := Figure20(cheapOpts())
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows %d, want 4 scenarios + validation", len(tbl.Rows))
	}
	for i := 0; i < 4; i++ {
		if sp := cellFloat(t, tbl, i, 3); sp <= 1.0 {
			t.Fatalf("scenario %s should win: %.2f", cell(tbl, i, 0), sp)
		}
	}
}

func TestAblationScratchpadOnlyOrdering(t *testing.T) {
	tbl := AblationScratchpadOnly(cheapOpts())
	for i := range tbl.Rows {
		spOnly := cellFloat(t, tbl, i, 1)
		full := cellFloat(t, tbl, i, 2)
		if full <= spOnly {
			t.Fatalf("%s: full OMEGA (%.2f) must beat storage-only (%.2f)",
				cell(tbl, i, 0), full, spOnly)
		}
	}
}

func TestAblationAtomicOverheadPositive(t *testing.T) {
	tbl := AblationAtomicOverhead(cheapOpts())
	for i := range tbl.Rows {
		if ovh := cellFloat(t, tbl, i, 3); ovh <= 0 {
			t.Fatalf("%s: atomics must cost something: %.1f%%", cell(tbl, i, 0), ovh)
		}
	}
}

func TestAblationReorderingHelps(t *testing.T) {
	tbl := AblationReordering(cheapOpts())
	id := findRow(tbl, "identity")
	ind := findRow(tbl, "in-degree")
	idCycles := cellFloat(t, tbl, id, 1)
	indCycles := cellFloat(t, tbl, ind, 1)
	if indCycles >= idCycles {
		t.Fatalf("in-degree reordering should help the baseline: %v vs %v",
			indCycles, idCycles)
	}
}

func TestAblationChunkMappingLocality(t *testing.T) {
	tbl := AblationChunkMapping(cheapOpts())
	matched := cellFloat(t, tbl, 0, 2)
	mismatched := cellFloat(t, tbl, 1, 2)
	if matched <= mismatched {
		t.Fatalf("matched chunks must raise local accesses: %.1f vs %.1f",
			matched, mismatched)
	}
}
