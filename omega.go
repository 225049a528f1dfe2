// Package omega is a reproduction of "Heterogeneous Memory Subsystem for
// Natural Graph Analytics" (Addisie, Kassa, Matthews, Bertacco — IISWC
// 2018): the OMEGA architecture — per-core scratchpads holding the
// most-connected vertices of a power-law graph, with Processing-In-
// SCratchpad (PISC) engines executing offloaded atomic updates — built as
// an execution-driven architectural simulator plus a Ligra-style
// vertex-centric graph framework.
//
// The package is a facade over the internal packages: it exposes graph
// construction, machine configuration, the framework, the eight paper
// algorithms, and the experiment harness behind a compact API. See
// DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
//
// Quick start:
//
//	g := omega.RMAT(14, 42)                     // power-law graph
//	g = omega.ReorderByInDegree(g)              // §VI static placement
//	cmp, _ := omega.Compare("PageRank", g, 0.20)
//	fmt.Printf("OMEGA speedup: %.2fx\n", cmp.Speedup())
package omega

import (
	"context"
	"fmt"
	"io"

	"omega/internal/algorithms"
	"omega/internal/core"
	"omega/internal/experiments"
	"omega/internal/graph"
	"omega/internal/graph/datasets"
	"omega/internal/graph/gen"
	"omega/internal/graph/gio"
	"omega/internal/graph/reorder"
	"omega/internal/ligra"
	"omega/internal/obs"
	"omega/internal/power"
)

// Re-exported primary types.
type (
	// Graph is a CSR graph with both edge directions.
	Graph = graph.Graph
	// Edge is a directed, optionally weighted arc.
	Edge = graph.Edge
	// DegreeStats is the Table I characterization of a graph.
	DegreeStats = graph.DegreeStats
	// Machine is one simulated system (baseline CMP or OMEGA).
	Machine = core.Machine
	// MachineConfig parameterizes a machine (Table III).
	MachineConfig = core.Config
	// MachineStats is the statistical snapshot of a finished run.
	MachineStats = core.MachineStats
	// Framework is the Ligra-style vertex-centric framework bound to a
	// machine and a graph.
	Framework = ligra.Framework
	// AlgorithmSpec is the Table II characterization plus a run entry
	// point.
	AlgorithmSpec = algorithms.Spec
	// EnergyBreakdown is the Figure 21 memory-system energy result.
	EnergyBreakdown = power.EnergyBreakdown
	// ExperimentTable is a formatted experiment result.
	ExperimentTable = experiments.Table
	// ExperimentOptions configures the experiment harness.
	ExperimentOptions = experiments.Options
	// DatasetCache memoizes deterministic graph construction; share one
	// via ExperimentOptions.Datasets to amortize generation across runs.
	DatasetCache = datasets.Cache
	// CellCache memoizes complete simulation cells — (machine config,
	// dataset, workload) triples — with singleflight dedup; share one via
	// ExperimentOptions.Cells to skip re-simulating identical cells across
	// experiments and repeated runs.
	CellCache = experiments.CellCache

	// Sink receives metric samples — the one instrumentation surface of
	// the simulator. Attach one with Machine.AttachSink (or set
	// ExperimentOptions.Metrics for harness runs) to stream per-iteration
	// telemetry; see internal/obs for the registry model and the optional
	// per-access / per-span extension interfaces. Sinks see every
	// iteration, carry stable component × name × level addresses, and
	// cost nothing when detached.
	Sink = obs.Sink
	// MetricSample is one observed metric value (component × name ×
	// level, cumulative, emitted at iteration boundaries).
	MetricSample = obs.MetricSample
	// MetricsBuffer is a thread-safe in-memory Sink for programmatic
	// consumption (NewMetricsBuffer).
	MetricsBuffer = obs.Buffer
)

// NewMetricsBuffer returns an empty in-memory metrics sink. Attach it to
// a Machine (or ExperimentOptions.Metrics) and read the samples back
// with its Samples/Drain methods.
func NewMetricsBuffer() *MetricsBuffer { return obs.NewBuffer() }

// NewDatasetCache returns an empty dataset cache.
func NewDatasetCache() *DatasetCache { return datasets.New() }

// NewCellCache returns an empty simulation-cell cache.
func NewCellCache() *CellCache { return experiments.NewCellCache() }

// RMAT generates a power-law R-MAT graph with 2^scale vertices.
func RMAT(scale int, seed uint64) *Graph {
	return gen.RMAT(gen.DefaultRMAT(scale, seed))
}

// SocialGraph generates a preferential-attachment graph with back edges,
// a stand-in for social datasets like lj/orkut.
func SocialGraph(numVertices int, seed uint64) *Graph {
	return gen.BarabasiAlbert(gen.BAConfig{
		NumVertices:      numVertices,
		EdgesPerVertex:   12,
		Seed:             seed,
		BackEdgeFraction: 0.3,
	})
}

// RoadGraph generates a planar road-network-like graph (non-power-law),
// a stand-in for roadNet-CA/PA and Western-USA.
func RoadGraph(side int, seed uint64) *Graph {
	return gen.RoadGrid(gen.RoadConfig{Side: side, ExtraFraction: 0.1, Seed: seed})
}

// LoadEdgeList reads a SNAP-style edge list.
func LoadEdgeList(r io.Reader, undirected bool, name string) (*Graph, error) {
	return gio.LoadEdgeList(r, undirected, name)
}

// ReorderByInDegree relabels a graph so vertex 0 is the most-connected —
// OMEGA's offline preprocessing (paper §VI).
func ReorderByInDegree(g *Graph) *Graph {
	return reorder.Apply(g, reorder.Compute(g, reorder.InDegree))
}

// Characterize computes the Table I statistics of a graph.
func Characterize(g *Graph) DegreeStats { return graph.ComputeDegreeStats(g) }

// BaselineConfig returns the Table III baseline CMP.
func BaselineConfig() MachineConfig { return core.Baseline() }

// OMEGAConfig returns the Table III OMEGA machine.
func OMEGAConfig() MachineConfig { return core.OMEGA() }

// ScaledConfigs returns a same-total-storage (baseline, OMEGA) pair sized
// so the scratchpads hold `coverage` of the graph's vtxProp (DESIGN.md §3).
func ScaledConfigs(g *Graph, vtxPropBytes int, coverage float64) (MachineConfig, MachineConfig) {
	return core.ScaledPair(g.NumVertices(), vtxPropBytes, coverage)
}

// NewMachine builds a machine from a configuration.
func NewMachine(cfg MachineConfig) *Machine { return core.NewMachine(cfg) }

// NewFramework binds a graph to a machine.
func NewFramework(m *Machine, g *Graph) *Framework { return ligra.New(m, g) }

// Algorithms returns the eight paper algorithms in Table II order.
func Algorithms() []AlgorithmSpec { return algorithms.All() }

// AlgorithmByName resolves an algorithm ("PageRank", "BFS", "SSSP", "BC",
// "Radii", "CC", "TC", "KC").
func AlgorithmByName(name string) (AlgorithmSpec, bool) {
	return algorithms.ByName(name)
}

// Comparison is the outcome of running one algorithm on both machines.
type Comparison struct {
	// Baseline and OMEGA hold each machine's run statistics.
	Baseline, OMEGA MachineStats
	// BaselineEnergy and OMEGAEnergy hold the Figure 21 energy models.
	BaselineEnergy, OMEGAEnergy EnergyBreakdown

	// samples holds both runs' per-iteration metric series (Series).
	samples []MetricSample
}

// Series returns the per-iteration metric samples of both runs, sorted
// canonically (baseline before omega by machine name, then iteration,
// then metric address). This is the supported way to see inside a
// comparison — per-level hit rates, NoC bytes, offloads, frontier sizes
// per iteration — without attaching a custom Sink.
func (c Comparison) Series() []MetricSample {
	return append([]MetricSample(nil), c.samples...)
}

// Speedup returns OMEGA's speedup over the baseline.
func (c Comparison) Speedup() float64 { return c.OMEGA.Speedup(c.Baseline) }

// EnergySaving returns OMEGA's energy saving factor.
func (c Comparison) EnergySaving() float64 {
	return c.OMEGAEnergy.Saving(c.BaselineEnergy)
}

// TrafficReduction returns the on-chip traffic reduction factor.
func (c Comparison) TrafficReduction() float64 {
	if c.OMEGA.NoCBytes == 0 {
		return 0
	}
	return float64(c.Baseline.NoCBytes) / float64(c.OMEGA.NoCBytes)
}

// Compare runs one algorithm on a scaled baseline/OMEGA machine pair over
// g and returns the paired results. The graph should already be reordered
// by in-degree (ReorderByInDegree); coverage is the scratchpad sizing
// fraction (0.20 in the paper).
func Compare(algorithm string, g *Graph, coverage float64) (Comparison, error) {
	spec, ok := algorithms.ByName(algorithm)
	if !ok {
		return Comparison{}, fmt.Errorf("omega: unknown algorithm %q", algorithm)
	}
	if spec.NeedsUndirected && !g.Undirected {
		return Comparison{}, fmt.Errorf("omega: %s requires an undirected graph", algorithm)
	}
	baseCfg, omCfg := core.ScaledPair(g.NumVertices(), spec.VtxPropBytes, coverage)
	var c Comparison
	buf := obs.NewBuffer()
	mb := core.NewMachine(baseCfg)
	mb.AttachSink(buf)
	c.Baseline = spec.Run(ligra.New(mb, g))
	mo := core.NewMachine(omCfg)
	mo.AttachSink(buf)
	c.OMEGA = spec.Run(ligra.New(mo, g))
	c.BaselineEnergy = power.Energy(baseCfg, c.Baseline)
	c.OMEGAEnergy = power.Energy(omCfg, c.OMEGA)
	c.samples = buf.Drain()
	obs.SortSamples(c.samples)
	return c, nil
}

// RunExperiment regenerates one paper artifact by ID ("Table I",
// "Figure 14", "Ablation A1", ...). See DESIGN.md §4 for the index. It is
// a convenience wrapper over RunExperimentContext with a background
// context.
func RunExperiment(id string, opts ExperimentOptions) (*ExperimentTable, error) {
	return RunExperimentContext(context.Background(), id, opts)
}

// RunExperimentContext regenerates one paper artifact by ID under ctx:
// the runner executes with panic recovery and, when opts.Timeout is set,
// a watchdog, so a broken experiment returns a Failed table rather than
// tearing the caller down. The ID set is experiments.Registry() — the
// same single source that drives ExperimentIDs, RunSuite, and
// cmd/omega-bench — so the facade cannot drift from the registry.
func RunExperimentContext(ctx context.Context, id string, opts ExperimentOptions) (*ExperimentTable, error) {
	spec, ok := experiments.SpecByID(id)
	if !ok {
		return nil, fmt.Errorf("omega: unknown experiment %q", id)
	}
	return experiments.RunSafe(ctx, spec, opts, opts.Timeout), nil
}

// RunSuite regenerates every registered artifact across a bounded worker
// pool (opts.Parallelism; zero = GOMAXPROCS) with a shared deterministic
// dataset cache, returning the tables in registry order plus the Suite
// telemetry table (per-experiment wall time, dataset- and cell-cache
// traffic; notes name the option set and the cache totals). Parallel,
// sequential, and cached runs produce identical experiment tables; only
// the summary varies with timing.
func RunSuite(ctx context.Context, opts ExperimentOptions) ([]*ExperimentTable, *ExperimentTable) {
	res := experiments.Suite(ctx, experiments.Registry(), opts, nil)
	return res.Tables, res.Summary
}

// ExperimentIDs lists the runnable experiment IDs in DESIGN.md §4 order,
// derived from experiments.Registry().
func ExperimentIDs() []string {
	specs := experiments.Registry()
	ids := make([]string, len(specs))
	for i, s := range specs {
		ids[i] = s.ID
	}
	return ids
}
