// Package obs is the simulator's unified observability layer: a typed
// metrics registry (counters / gauges keyed by component × name ×
// hierarchy level) and the Sink contract through which every
// consumer — per-iteration series emitters, the access tracer, span
// timelines, the experiment harness — receives telemetry.
//
// The design follows three rules (DESIGN.md §10):
//
//   - Observation never perturbs simulation. Registry metrics are
//     read-only closures over live component counters; emitting a sample
//     reads state, it never writes any.
//   - The disabled path is free. A machine with no sink attached pays one
//     nil check per hook site and allocates nothing (the zero-alloc
//     guards in core enforce this).
//   - Consumers opt into cost. The base Sink receives only iteration-
//     boundary samples; the per-access and per-span firehoses are
//     optional extension interfaces (AccessSink, SpanSink) detected once
//     at attach time, so a samples-only sink adds zero per-access work.
package obs

import (
	"omega/internal/memsys"
)

// MetricSample is one observed metric value. Samples are emitted at
// iteration boundaries (and once more after the final partial iteration),
// carry cumulative values, and are addressed by component × name × level.
// Experiment and Run are harness-side labels stamped by wrappers
// (WithRun, the experiments harness); the machine itself fills only
// Machine, Iteration, and the metric address.
type MetricSample struct {
	// Experiment is the artifact ID ("Figure 14") when emitted through
	// the experiment harness, empty otherwise.
	Experiment string `json:"experiment,omitempty"`
	// Run labels the run within an experiment (dataset, algorithm/dataset,
	// sweep point), empty for direct machine attachment.
	Run string `json:"run,omitempty"`
	// Machine is the emitting machine's configuration name
	// ("baseline"/"omega"), or "harness" for harness-level samples.
	Machine string `json:"machine"`
	// Iteration is the algorithm iteration the sample closes (1-based;
	// iterations+1 marks the final end-of-run flush; 0 marks
	// harness-level samples).
	Iteration uint64 `json:"iteration"`
	// Component addresses the emitting component ("cache", "dram", "noc",
	// "scratchpad", "pisc", "machine", "sched", ...).
	Component string `json:"component"`
	// Name is the metric name within the component.
	Name string `json:"name"`
	// Level is the hierarchy level / traffic class / access kind the
	// metric is keyed by, empty for component-global metrics.
	Level string `json:"level,omitempty"`
	// Value is the cumulative metric value. Zero-valued samples are
	// suppressed at emission: absence means zero.
	Value uint64 `json:"value"`
}

// Sink receives metric samples. Implementations attached to machines
// driven by concurrent goroutines (the experiment harness's variant
// fan-out) must be safe for concurrent use; Buffer is.
type Sink interface {
	Sample(MetricSample)
}

// AccessSink is the optional per-access extension of Sink: a sink that
// also implements it receives every simulated access with its timing
// outcome (the trace.Collector firehose). Machines resolve the interface
// once at AttachSink time, so plain sinks pay nothing per access.
type AccessSink interface {
	Sink
	Access(now memsys.Cycles, a memsys.Access, r memsys.Result)
}

// SpanSink is the optional activity-span extension of Sink: a sink that
// also implements it receives one Span per core per parallel/sequential
// region (the chrome://tracing timeline source).
type SpanSink interface {
	Sink
	Span(Span)
}

// Span is one core's activity inside one scheduled region, in simulated
// cycles. Start/End are the core's local clock entering and leaving the
// region (before the end-of-region barrier aligns clocks).
type Span struct {
	// Machine is the emitting machine's configuration name.
	Machine string
	// Core is the simulated core ID.
	Core int
	// Name labels the region ("parallel", "sequential").
	Name string
	// Start and End bound the activity.
	Start, End memsys.Cycles
}

// MetricKind types a registry entry.
type MetricKind uint8

const (
	// KindCounter is a monotonically increasing cumulative count.
	KindCounter MetricKind = iota
	// KindGauge is an instantaneous value (occupancy, residency).
	KindGauge
)

// String names the kind.
func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	}
	return "metric"
}

// Desc describes one registered metric. Read is a closure over the
// owning component's live state, so a registry is a view: it can never
// disagree with the counters the rest of the system reads directly.
type Desc struct {
	Component string
	Name      string
	Level     string
	Kind      MetricKind
	Read      func() uint64
}

type metricKey struct {
	component, name, level string
}

// Registry is an ordered collection of metric descriptors. Registration
// order is emission order (deterministic for deterministically built
// machines); re-registering an existing (component, name, level) replaces
// the descriptor in place (latest wins), so a framework re-binding to a
// machine refreshes its gauges instead of duplicating them.
//
// A Registry is built and read by the single goroutine driving its
// machine; it is not safe for concurrent use.
type Registry struct {
	metrics []Desc
	index   map[metricKey]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[metricKey]int)}
}

// Register adds (or replaces) a descriptor.
func (r *Registry) Register(d Desc) {
	k := metricKey{d.Component, d.Name, d.Level}
	if i, ok := r.index[k]; ok {
		r.metrics[i] = d
		return
	}
	r.index[k] = len(r.metrics)
	r.metrics = append(r.metrics, d)
}

// RegisterCounter registers a cumulative counter read through fn.
func (r *Registry) RegisterCounter(component, name, level string, fn func() uint64) {
	r.Register(Desc{Component: component, Name: name, Level: level, Kind: KindCounter, Read: fn})
}

// RegisterGauge registers an instantaneous gauge read through fn.
func (r *Registry) RegisterGauge(component, name, level string, fn func() uint64) {
	r.Register(Desc{Component: component, Name: name, Level: level, Kind: KindGauge, Read: fn})
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int { return len(r.metrics) }

// Each visits every descriptor in registration order.
func (r *Registry) Each(fn func(Desc)) {
	for _, d := range r.metrics {
		fn(d)
	}
}

// Value reads one counter/gauge by address, reporting whether it is
// registered.
func (r *Registry) Value(component, name, level string) (uint64, bool) {
	i, ok := r.index[metricKey{component, name, level}]
	if !ok || r.metrics[i].Read == nil {
		return 0, false
	}
	return r.metrics[i].Read(), true
}

// Get is Value without the registration report: unregistered metrics
// read as zero. MachineStats is derived through Get, so a stats field
// whose probe was never registered is zero rather than stale.
func (r *Registry) Get(component, name, level string) uint64 {
	v, _ := r.Value(component, name, level)
	return v
}

// Emit reads every registered metric and sends the non-zero values to s
// as samples stamped with the given machine name and iteration.
// Zero-valued samples are suppressed: absence means zero, and the
// emitted series stays proportional to activity.
func (r *Registry) Emit(s Sink, machine string, iteration uint64) {
	if s == nil {
		return
	}
	sample := MetricSample{Machine: machine, Iteration: iteration}
	for _, d := range r.metrics {
		sample.Component, sample.Name, sample.Level = d.Component, d.Name, d.Level
		if d.Read == nil {
			continue
		}
		if v := d.Read(); v != 0 {
			sample.Value = v
			s.Sample(sample)
		}
	}
}
