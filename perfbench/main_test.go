package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// declared mirrors the parts of BENCHMARK.json the output must match.
type declared struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// smoke runs one workload at the smoke scale with the shortest timed
// phase: one rep per phase, every check, and for trace the profile.
func smoke(t *testing.T, workload string, trace bool) result {
	t.Helper()
	res, _, err := run(options{workload: workload, seed: 42, seconds: 0.001, trace: trace, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d",
			workload, trace, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

func TestEveryWorkloadReportsTheDeclaredMetrics(t *testing.T) {
	d := loadDeclared(t)
	for _, w := range d.Workloads {
		for _, trace := range []bool{false, true} {
			res := smoke(t, w.Name, trace)
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d",
					w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: missing %s", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s in %s, declared %s", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// The simulated counts must repeat exactly from run to run; the sample
// counts of the timing layers depend on how many reps fit and are not
// simulated counts.
func TestSimulatedCountsRepeat(t *testing.T) {
	for _, w := range []string{"suite-s12", "powerlaw-atomic", "powerlaw-tc"} {
		a, b := smoke(t, w, true), smoke(t, w, true)
		for name, m := range a.Metrics {
			if m.Unit != "count" || strings.HasSuffix(name, ".samples") {
				continue
			}
			if b.Metrics[name] != m {
				t.Errorf("%s: %s = %v, then %v", w, name, m.Value, b.Metrics[name].Value)
			}
		}
	}
}

func TestSuiteDigestMismatchFails(t *testing.T) {
	saved := expectedDigests[9]
	expectedDigests[9] = "not-the-digest"
	defer func() { expectedDigests[9] = saved }()
	res, _, err := run(options{workload: "suite-s12", seed: 42, seconds: 0.001, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("a wrong pinned digest passed: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

func TestProfileLayers(t *testing.T) {
	for fn, want := range map[string]string{
		"omega/internal/core.(*Machine).access":                    "core",
		"omega/internal/memsys/cache.(*Cache).FillMissAt":          "memsys.cache",
		"omega/internal/memsys.(*Queue).Enqueue":                   "memsys.queue",
		"omega/internal/graph/reorder.Apply":                       "graph",
		"omega/internal/graphmat.Run":                              "other",
		"runtime.mallocgc":                                         "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":             "runtime",
		"slices.pdqsortCmpFunc[go.shape.struct { a/b.c int }]":     "other",
		"omega/internal/ligra.(*Framework).EdgeMap.func1 (inline)": "ligra",
	} {
		if got := layerOf(packageOf(fn)); got != want {
			t.Errorf("%s: layer %s, want %s", fn, got, want)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, _, err := run(options{workload: "nope", seconds: 0.001}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
