package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
)

// Buffer is a thread-safe in-memory sink: machines driven by concurrent
// goroutines (the harness's variant fan-out) can share one. The harness
// drains it, sorts canonically, and replays into the user's sink, which
// is how parallel and sequential suite runs emit byte-identical series.
type Buffer struct {
	mu      sync.Mutex
	samples []MetricSample
}

// NewBuffer returns an empty buffer.
func NewBuffer() *Buffer { return &Buffer{} }

// Sample implements Sink.
func (b *Buffer) Sample(s MetricSample) {
	b.mu.Lock()
	b.samples = append(b.samples, s)
	b.mu.Unlock()
}

// Len returns the number of buffered samples.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.samples)
}

// Drain returns the buffered samples and empties the buffer.
func (b *Buffer) Drain() []MetricSample {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.samples
	b.samples = nil
	return s
}

// Samples returns a copy of the buffered samples without draining.
func (b *Buffer) Samples() []MetricSample {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]MetricSample(nil), b.samples...)
}

// SortSamples orders samples by the full canonical tuple (Experiment,
// Run, Machine, Iteration, Component, Name, Level, Value). The order is
// total: two samples comparing equal are identical, so any goroutine
// interleaving of the same sample multiset sorts to the same sequence —
// the determinism contract of the parallel experiment harness.
func SortSamples(s []MetricSample) {
	sort.Slice(s, func(i, j int) bool {
		a, b := &s[i], &s[j]
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		if a.Run != b.Run {
			return a.Run < b.Run
		}
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		if a.Iteration != b.Iteration {
			return a.Iteration < b.Iteration
		}
		if a.Component != b.Component {
			return a.Component < b.Component
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Level != b.Level {
			return a.Level < b.Level
		}
		return a.Value < b.Value
	})
}

// runSink stamps a Run label on every sample.
type runSink struct {
	inner Sink
	run   string
}

// WithRun returns a sink that stamps run into every sample's Run field
// before forwarding to s.
func WithRun(s Sink, run string) Sink { return &runSink{inner: s, run: run} }

// Sample implements Sink.
func (w *runSink) Sample(s MetricSample) {
	s.Run = w.run
	w.inner.Sample(s)
}

// SeriesFile is a metric series written to a file: TSV when the path
// ends in ".tsv", JSONL otherwise.
type SeriesFile struct {
	w interface {
		Sink
		Flush() error
	}
	f *os.File
}

// CreateSeriesFile creates path and returns a series writer over it.
func CreateSeriesFile(path string) (*SeriesFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s := &SeriesFile{f: f}
	if strings.HasSuffix(path, ".tsv") {
		s.w = NewTSVWriter(f)
	} else {
		s.w = NewJSONLWriter(f)
	}
	return s, nil
}

// Sample implements Sink.
func (s *SeriesFile) Sample(m MetricSample) { s.w.Sample(m) }

// Close flushes the series and closes the file, returning the first
// write or close error.
func (s *SeriesFile) Close() error {
	err := s.w.Flush()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// JSONLWriter streams samples as one JSON object per line. It is not
// safe for concurrent use; the harness serializes emission (Buffer +
// canonical sort) before samples reach a writer. The first write error
// sticks, suppresses further output, and is returned by Flush.
type JSONLWriter struct {
	w   *bufio.Writer
	err error
}

// NewJSONLWriter wraps w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{w: bufio.NewWriter(w)}
}

// Sample implements Sink.
func (j *JSONLWriter) Sample(s MetricSample) {
	if j.err != nil {
		return
	}
	data, err := json.Marshal(s)
	if err == nil {
		_, err = j.w.Write(data)
	}
	if err == nil {
		err = j.w.WriteByte('\n')
	}
	j.err = err
}

// Flush drains the write buffer.
func (j *JSONLWriter) Flush() error {
	if j.err != nil {
		return j.err
	}
	j.err = j.w.Flush()
	return j.err
}

// tsvHeader is the column order of the TSV series format.
const tsvHeader = "experiment\trun\tmachine\titeration\tcomponent\tname\tlevel\tvalue"

// TSVWriter streams samples as tab-separated values with a header line.
// Same concurrency and error contract as JSONLWriter.
type TSVWriter struct {
	w      *bufio.Writer
	err    error
	headed bool
}

// NewTSVWriter wraps w.
func NewTSVWriter(w io.Writer) *TSVWriter {
	return &TSVWriter{w: bufio.NewWriter(w)}
}

// Sample implements Sink.
func (t *TSVWriter) Sample(s MetricSample) {
	if t.err != nil {
		return
	}
	if !t.headed {
		t.headed = true
		if _, err := fmt.Fprintln(t.w, tsvHeader); err != nil {
			t.err = err
			return
		}
	}
	_, t.err = fmt.Fprintf(t.w, "%s\t%s\t%s\t%d\t%s\t%s\t%s\t%d\n",
		s.Experiment, s.Run, s.Machine, s.Iteration, s.Component, s.Name, s.Level, s.Value)
}

// Flush drains the write buffer (writing the header even for an empty
// series, so downstream tooling sees a well-formed file).
func (t *TSVWriter) Flush() error {
	if t.err != nil {
		return t.err
	}
	if !t.headed {
		t.headed = true
		if _, err := fmt.Fprintln(t.w, tsvHeader); err != nil {
			t.err = err
			return err
		}
	}
	t.err = t.w.Flush()
	return t.err
}

// ValidationReport summarizes a JSONL series validation.
type ValidationReport struct {
	// Samples is the number of valid sample lines.
	Samples int
	// Experiments / Machines / Components are the distinct label counts.
	Experiments, Machines, Components int
}

// ValidateJSONL schema-checks a JSONL metric series: every line must
// parse as a MetricSample with non-empty Machine, Component, and Name.
// It returns the first violation as an error, with the summary of what
// was read up to that point.
func ValidateJSONL(r io.Reader) (ValidationReport, error) {
	var rep ValidationReport
	exps := map[string]bool{}
	machines := map[string]bool{}
	comps := map[string]bool{}
	dec := json.NewDecoder(r)
	for line := 1; ; line++ {
		var s MetricSample
		if err := dec.Decode(&s); err == io.EOF {
			break
		} else if err != nil {
			return rep, fmt.Errorf("sample %d: %w", line, err)
		}
		if s.Machine == "" || s.Component == "" || s.Name == "" {
			return rep, fmt.Errorf("sample %d: missing machine/component/name: %+v", line, s)
		}
		rep.Samples++
		exps[s.Experiment] = true
		machines[s.Machine] = true
		comps[s.Component] = true
	}
	rep.Experiments = len(exps)
	rep.Machines = len(machines)
	rep.Components = len(comps)
	return rep, nil
}
