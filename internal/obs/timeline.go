package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Timeline collects activity spans and renders them in the Chrome Trace
// Event JSON format (chrome://tracing, Perfetto): one process per
// machine, one thread per core, simulated cycles mapped 1:1 onto trace
// microseconds. It is safe for concurrent use, so one timeline can serve
// several machines running on separate goroutines; rendering sorts the
// spans canonically, keeping the output deterministic regardless of
// interleaving. Attach its Span method as a machine's span tracer.
type Timeline struct {
	mu    sync.Mutex
	spans []Span
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return &Timeline{} }

// Span records one span.
func (t *Timeline) Span(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Len returns the number of collected spans.
func (t *Timeline) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// traceEvent is one Chrome Trace Event ("X" = complete span, "M" =
// metadata).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders the collected spans as a Chrome Trace Event
// JSON document.
func (t *Timeline) WriteChromeTrace(w io.Writer) error {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()

	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		if a.Core != b.Core {
			return a.Core < b.Core
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		return a.Name < b.Name
	})

	// One trace process per machine, numbered in name order.
	pids := map[string]int{}
	var names []string
	for _, s := range spans {
		if _, ok := pids[s.Machine]; !ok {
			pids[s.Machine] = 0
			names = append(names, s.Machine)
		}
	}
	sort.Strings(names)
	for i, n := range names {
		pids[n] = i + 1
	}

	events := make([]traceEvent, 0, len(spans)+len(names))
	for _, n := range names {
		events = append(events, traceEvent{
			Name: "process_name", Ph: "M", Pid: pids[n],
			Args: map[string]any{"name": n},
		})
	}
	for _, s := range spans {
		events = append(events, traceEvent{
			Name: s.Name, Ph: "X",
			Ts: uint64(s.Start), Dur: uint64(s.End - s.Start),
			Pid: pids[s.Machine], Tid: s.Core,
		})
	}
	doc := struct {
		TraceEvents []traceEvent `json:"traceEvents"`
		TimeUnit    string       `json:"displayTimeUnit"`
	}{events, "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
