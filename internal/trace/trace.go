// Package trace captures per-access event streams from a simulated
// machine for offline analysis: which data structure was touched, which
// hierarchy level served it, and what it cost. Traces power the
// cmd/omega-trace inspection tool and ad-hoc studies that the aggregate
// MachineStats cannot answer (e.g. latency distributions per access kind).
package trace

import (
	"fmt"
	"io"
	"sort"

	"omega/internal/memsys"
	"omega/internal/obs"
	"omega/internal/stats"
)

// Event is one recorded access.
type Event struct {
	// Cycle is the issuing core's local clock at issue time.
	Cycle memsys.Cycles
	// Core is the issuing core.
	Core int
	// Kind/Op classify the access.
	Kind memsys.Kind
	Op   memsys.Op
	// Level is the hierarchy level that served it.
	Level memsys.Level
	// Latency is the modeled completion latency.
	Latency memsys.Cycles
	// Blocking/Offloaded mirror the timing outcome.
	Blocking  bool
	Offloaded bool
}

// Collector accumulates events in memory (bounded) and aggregates
// per-(kind, level) statistics unboundedly. It is an obs.AccessSink:
// attach it with Machine.AttachSink to receive the per-access firehose.
// Aggregates live in dense (Kind, Level) enum arrays plus a per-kind
// latency histogram, so recording an access allocates nothing once the
// event buffer is full and each kind's histogram exists.
type Collector struct {
	// MaxEvents bounds the retained raw events (0 = keep none, aggregate
	// only).
	MaxEvents int

	events []Event
	cells  [memsys.NumKinds][memsys.NumLevels]cell
	hist   [memsys.NumKinds]*stats.Histogram
}

// cell is one (kind, level) aggregate: accesses served and their summed
// completion latency in cycles.
type cell struct {
	count, latency uint64
}

// NewCollector builds a collector retaining up to maxEvents raw events.
func NewCollector(maxEvents int) *Collector {
	return &Collector{MaxEvents: maxEvents}
}

// Sample implements obs.Sink. Iteration-boundary samples are dropped:
// the collector consumes the access stream only, and composes with a
// series emitter via obs.Tee when both are wanted.
func (c *Collector) Sample(obs.MetricSample) {}

// Access implements obs.AccessSink by recording the access.
func (c *Collector) Access(now memsys.Cycles, a memsys.Access, r memsys.Result) {
	c.Record(now, a, r)
}

// Record folds one access into the trace (the Access hook's
// implementation, callable directly by tests and replay tooling).
func (c *Collector) Record(now memsys.Cycles, a memsys.Access, r memsys.Result) {
	if len(c.events) < c.MaxEvents {
		c.events = append(c.events, Event{
			Cycle: now, Core: a.Core, Kind: a.Kind, Op: a.Op,
			Level: r.Level, Latency: r.Latency,
			Blocking: r.Blocking, Offloaded: r.Offloaded,
		})
	}
	v := &c.cells[a.Kind][r.Level]
	v.count++
	v.latency += uint64(r.Latency)
	h := c.hist[a.Kind]
	if h == nil {
		h = stats.NewHistogram(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
		c.hist[a.Kind] = h
	}
	h.Observe(uint64(r.Latency))
}

// Row is one aggregate line of the summary.
type Row struct {
	Kind       memsys.Kind
	Level      string
	Count      uint64
	AvgLatency float64
}

// Summary returns per-(kind, level) aggregates sorted by descending count.
func (c *Collector) Summary() []Row {
	var rows []Row
	for kind := memsys.Kind(0); kind < memsys.NumKinds; kind++ {
		for level := memsys.Level(0); level < memsys.NumLevels; level++ {
			v := c.cells[kind][level]
			if v.count == 0 {
				continue
			}
			rows = append(rows, Row{
				Kind:       kind,
				Level:      level.String(),
				Count:      v.count,
				AvgLatency: float64(v.latency) / float64(v.count),
			})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		if rows[i].Kind != rows[j].Kind {
			return rows[i].Kind < rows[j].Kind
		}
		return rows[i].Level < rows[j].Level
	})
	return rows
}

// LatencyQuantile returns the q-quantile latency estimate for one access
// kind (0 when the kind was never observed).
func (c *Collector) LatencyQuantile(kind memsys.Kind, q float64) uint64 {
	h := c.hist[kind]
	if h == nil {
		return 0
	}
	return h.Quantile(q)
}

// WriteSummary renders the aggregate table.
func (c *Collector) WriteSummary(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-12s %-11s %10s %10s %9s %9s\n",
		"kind", "level", "count", "avg-lat", "kind-p50", "kind-p99"); err != nil {
		return err
	}
	for _, r := range c.Summary() {
		if _, err := fmt.Fprintf(w, "%-12s %-11s %10d %10.1f %9d %9d\n",
			r.Kind, r.Level, r.Count, r.AvgLatency,
			c.LatencyQuantile(r.Kind, 0.5), c.LatencyQuantile(r.Kind, 0.99)); err != nil {
			return err
		}
	}
	return nil
}

// WriteTSV dumps the retained raw events as tab-separated values.
func (c *Collector) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "cycle\tcore\tkind\top\tlevel\tlatency\tblocking\toffloaded"); err != nil {
		return err
	}
	for _, e := range c.events {
		if _, err := fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%s\t%d\t%v\t%v\n",
			e.Cycle, e.Core, e.Kind, e.Op, e.Level, e.Latency,
			e.Blocking, e.Offloaded); err != nil {
			return err
		}
	}
	return nil
}
