package core

import (
	"reflect"
	"testing"

	"omega/internal/faults"
	"omega/internal/memsys"
	"omega/internal/obs"
)

// TestObserverContract pins the three attach points on both machines: a
// sample sink, the access tracer and the span tracer are attached
// independently, only the access tracer turns run folding off, and none
// of them moves a simulated count.
func TestObserverContract(t *testing.T) {
	ops := decodeScript(blockScript())
	for _, omega := range []bool{false, true} {
		cfg := foldConfig(omega, true, faults.Config{})
		t.Run(cfg.Name, func(t *testing.T) {
			// run executes blockScript twice on a fresh machine, calling
			// between after the first pass, and returns the stats after
			// each pass.
			run := func(attach, between func(*Machine)) (first, second MachineStats) {
				m := NewMachine(cfg)
				s := newScriptRunner(m, fuzzRegions)
				attach(m)
				s.run(ops)
				first = m.Stats()
				between(m)
				s.run(ops)
				return first, m.Stats()
			}
			none := func(*Machine) {}
			want1, want2 := run(none, none)

			var sinkFold bool
			_, got := run(func(m *Machine) {
				m.AttachSink(obs.NewBuffer())
				sinkFold = m.foldEnabled
			}, none)
			if !sinkFold {
				t.Error("a sample sink turned run folding off")
			}
			if !reflect.DeepEqual(got, want2) {
				t.Errorf("a sample sink moved the stats:\ngot  %+v\nwant %+v", got, want2)
			}

			var events uint64
			var traceFold, detachFold bool
			first, second := run(func(m *Machine) {
				m.TraceAccesses(func(memsys.Cycles, memsys.Access, memsys.Result) { events++ })
				traceFold = m.foldEnabled
			}, func(m *Machine) {
				m.TraceAccesses(nil)
				detachFold = m.foldEnabled
			})
			if traceFold {
				t.Error("run folding stayed on with an access tracer attached")
			}
			if events != first.TotalAccesses() {
				t.Errorf("access tracer saw %d events, machine counted %d", events, first.TotalAccesses())
			}
			if !detachFold {
				t.Error("run folding stayed off after the access tracer was detached")
			}
			if !reflect.DeepEqual(first, want1) {
				t.Errorf("the access tracer moved the stats:\ngot  %+v\nwant %+v", first, want1)
			}
			if !reflect.DeepEqual(second, want2) {
				t.Errorf("detaching the access tracer moved the stats:\ngot  %+v\nwant %+v", second, want2)
			}

			// blockScript has one one-item region, where core 0 works, and
			// one two-item region, where cores 0 and 1 work.
			var spans []obs.Span
			_, got = run(func(m *Machine) {
				m.TraceSpans(func(s obs.Span) { spans = append(spans, s) })
			}, none)
			if !reflect.DeepEqual(got, want2) {
				t.Errorf("the span tracer moved the stats:\ngot  %+v\nwant %+v", got, want2)
			}
			type where struct {
				name string
				core int
			}
			var gotWhere []where
			for _, s := range spans {
				if s.Machine != cfg.Name || s.End <= s.Start {
					t.Errorf("malformed span %+v", s)
				}
				gotWhere = append(gotWhere, where{s.Name, s.Core})
			}
			pass := []where{{"parallel", 0}, {"parallel", 0}, {"parallel", 1}}
			if wantWhere := append(pass, pass...); !reflect.DeepEqual(gotWhere, wantWhere) {
				t.Errorf("spans at %v, want %v", gotWhere, wantWhere)
			}
		})
	}
}
