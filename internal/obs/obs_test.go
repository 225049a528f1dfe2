package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRegistryOrderAndReplace(t *testing.T) {
	r := NewRegistry()
	r.RegisterCounter("cache", "read_hits", "L1", func() uint64 { return 1 })
	r.RegisterCounter("dram", "accesses", "", func() uint64 { return 2 })
	r.RegisterCounter("cache", "read_hits", "L1", func() uint64 { return 7 }) // replace
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (replace must not duplicate)", r.Len())
	}
	var order []string
	r.Each(func(d Desc) { order = append(order, d.Component+"."+d.Name) })
	if order[0] != "cache.read_hits" || order[1] != "dram.accesses" {
		t.Fatalf("registration order not preserved: %v", order)
	}
	if v, ok := r.Value("cache", "read_hits", "L1"); !ok || v != 7 {
		t.Fatalf("Value after replace = %d,%v, want 7,true (latest wins)", v, ok)
	}
	if got := r.Get("nope", "missing", ""); got != 0 {
		t.Fatalf("Get(unregistered) = %d, want 0", got)
	}
}

func TestRegistryEmitSuppressesZeros(t *testing.T) {
	r := NewRegistry()
	r.RegisterCounter("a", "nonzero", "", func() uint64 { return 5 })
	r.RegisterCounter("a", "zero", "", func() uint64 { return 0 })
	r.RegisterGauge("b", "gauge", "L2+", func() uint64 { return 9 })
	b := NewBuffer()
	r.Emit(b, "omega", 3)
	got := b.Samples()
	if len(got) != 2 {
		t.Fatalf("emitted %d samples, want 2 (zero suppressed): %+v", len(got), got)
	}
	want0 := MetricSample{Machine: "omega", Iteration: 3, Component: "a", Name: "nonzero", Value: 5}
	if got[0] != want0 {
		t.Fatalf("sample[0] = %+v, want %+v", got[0], want0)
	}
	if got[1].Level != "L2+" || got[1].Value != 9 {
		t.Fatalf("sample[1] = %+v", got[1])
	}
	// Nil sink must be a no-op, not a panic.
	r.Emit(nil, "omega", 4)
}

func TestSortSamplesIsTotalOrder(t *testing.T) {
	mk := func(exp, run, m string, it uint64, comp, name, lvl string, v uint64) MetricSample {
		return MetricSample{Experiment: exp, Run: run, Machine: m, Iteration: it,
			Component: comp, Name: name, Level: lvl, Value: v}
	}
	base := []MetricSample{
		mk("F3", "rmat", "omega", 2, "noc", "bytes", "line", 10),
		mk("F3", "rmat", "omega", 1, "noc", "bytes", "line", 4),
		mk("F3", "rmat", "baseline", 1, "noc", "bytes", "line", 6),
		mk("F3", "amazon", "omega", 1, "cache", "read_hits", "L1", 3),
		mk("F2", "rmat", "omega", 1, "noc", "bytes", "ctrl", 1),
		mk("F3", "rmat", "omega", 1, "noc", "bytes", "ctrl", 2),
	}
	want := append([]MetricSample(nil), base...)
	SortSamples(want)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		s := append([]MetricSample(nil), base...)
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		SortSamples(s)
		for i := range s {
			if s[i] != want[i] {
				t.Fatalf("trial %d: sort not canonical at %d: %+v != %+v", trial, i, s[i], want[i])
			}
		}
	}
}

func TestBufferDrain(t *testing.T) {
	b := NewBuffer()
	b.Sample(MetricSample{Machine: "m", Component: "c", Name: "n", Value: 1})
	b.Sample(MetricSample{Machine: "m", Component: "c", Name: "n", Value: 2})
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	s := b.Drain()
	if len(s) != 2 || b.Len() != 0 {
		t.Fatalf("Drain returned %d, left %d", len(s), b.Len())
	}
}

func TestWithRunStampsSamples(t *testing.T) {
	b := NewBuffer()
	s := WithRun(b, "pagerank/rmat")
	s.Sample(MetricSample{Machine: "omega", Component: "c", Name: "n", Value: 1})
	got := b.Samples()
	if got[0].Run != "pagerank/rmat" {
		t.Fatalf("Run = %q, want pagerank/rmat", got[0].Run)
	}
}

func TestJSONLWriterAndValidate(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	w.Sample(MetricSample{Experiment: "Figure 3", Machine: "omega", Iteration: 1,
		Component: "noc", Name: "bytes", Level: "line", Value: 640})
	w.Sample(MetricSample{Machine: "baseline", Iteration: 2,
		Component: "cache", Name: "read_hits", Level: "L1", Value: 12})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	var round MetricSample
	if err := json.Unmarshal([]byte(lines[0]), &round); err != nil {
		t.Fatal(err)
	}
	if round.Experiment != "Figure 3" || round.Value != 640 {
		t.Fatalf("round trip = %+v", round)
	}
	rep, err := ValidateJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != 2 || rep.Machines != 2 || rep.Components != 2 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestValidateJSONLRejectsBadSample(t *testing.T) {
	bad := `{"machine":"m","iteration":1,"component":"","name":"x","value":1}` + "\n"
	if _, err := ValidateJSONL(strings.NewReader(bad)); err == nil {
		t.Fatal("expected validation error for empty component")
	}
	if _, err := ValidateJSONL(strings.NewReader("not json\n")); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestTSVWriter(t *testing.T) {
	var buf bytes.Buffer
	w := NewTSVWriter(&buf)
	w.Sample(MetricSample{Experiment: "Table II", Run: "rmat", Machine: "omega",
		Iteration: 1, Component: "dram", Name: "accesses", Value: 99})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := tsvHeader + "\n" + "Table II\trmat\tomega\t1\tdram\taccesses\t\t99\n"
	if buf.String() != want {
		t.Fatalf("tsv = %q, want %q", buf.String(), want)
	}

	// Empty series still yields the header.
	var empty bytes.Buffer
	we := NewTSVWriter(&empty)
	if err := we.Flush(); err != nil {
		t.Fatal(err)
	}
	if empty.String() != tsvHeader+"\n" {
		t.Fatalf("empty tsv = %q", empty.String())
	}
}

// TestSeriesFile checks that a series file's encoding follows its
// suffix and that Close leaves the flushed series on disk.
func TestSeriesFile(t *testing.T) {
	sample := MetricSample{Run: "rmat", Machine: "omega", Iteration: 1,
		Component: "dram", Name: "accesses", Value: 99}
	for name, want := range map[string]string{
		"run.tsv":   tsvHeader + "\n\trmat\tomega\t1\tdram\taccesses\t\t99\n",
		"run.jsonl": `{"run":"rmat","machine":"omega","iteration":1,"component":"dram","name":"accesses","value":99}` + "\n",
	} {
		path := filepath.Join(t.TempDir(), name)
		f, err := CreateSeriesFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f.Sample(sample)
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%s = %q, want %q", name, got, want)
		}
	}
	if _, err := CreateSeriesFile(filepath.Join(t.TempDir(), "missing", "run.tsv")); err == nil {
		t.Fatal("CreateSeriesFile into a missing directory succeeded")
	}
}

// TestValidateSeriesFile checks that validation follows the same suffix
// rule as creation: a TSV series is not validated, a JSONL one is
// schema-checked.
func TestValidateSeriesFile(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// TSV: not validated, even when the content would not parse as JSONL.
	rep, checked, err := ValidateSeriesFile(write("run.tsv", "not json\n"))
	if err != nil || checked || rep.Samples != 0 {
		t.Fatalf("tsv: rep %+v checked %v err %v, want unchecked", rep, checked, err)
	}
	good := `{"machine":"m","iteration":1,"component":"dram","name":"accesses","value":1}` + "\n"
	rep, checked, err = ValidateSeriesFile(write("run.jsonl", good))
	if err != nil || !checked || rep.Samples != 1 {
		t.Fatalf("jsonl: rep %+v checked %v err %v, want 1 checked sample", rep, checked, err)
	}
	bad := write("bad.jsonl", `{"machine":"m","iteration":1,"component":"","name":"x","value":1}`+"\n")
	if _, checked, err = ValidateSeriesFile(bad); !checked || err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("bad jsonl: checked %v err %v, want a schema error naming the file", checked, err)
	}
	if _, _, err = ValidateSeriesFile(filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Fatal("missing JSONL series validated")
	}
}

func TestTimelineChromeTrace(t *testing.T) {
	tl := NewTimeline()
	tl.Span(Span{Machine: "omega", Core: 1, Name: "parallel", Start: 10, End: 30})
	tl.Span(Span{Machine: "baseline", Core: 0, Name: "parallel", Start: 0, End: 8})
	tl.Span(Span{Machine: "omega", Core: 0, Name: "sequential", Start: 2, End: 4})
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   uint64 `json:"ts"`
			Dur  uint64 `json:"dur"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	// 2 process_name metadata + 3 spans.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("events = %d, want 5", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Ph != "M" || doc.TraceEvents[1].Ph != "M" {
		t.Fatalf("metadata events must lead: %+v", doc.TraceEvents[:2])
	}
	// baseline sorts before omega → pid 1; its span precedes omega's.
	sp := doc.TraceEvents[2]
	if sp.Pid != 1 || sp.Ts != 0 || sp.Dur != 8 {
		t.Fatalf("first span = %+v, want baseline pid 1 ts 0 dur 8", sp)
	}
}
