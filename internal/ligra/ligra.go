// Package ligra is a vertex-centric graph-processing framework in the
// mold of Ligra (Shun & Blelloch, PPoPP'13), the framework the paper runs
// on its machines: vertexSubset frontiers with sparse and dense
// representations, edgeMap with push (sparse, atomic) and pull (dense)
// traversal, vertexMap, and the per-vertex property arrays whose access
// pattern OMEGA targets.
//
// The framework is execution-driven in the simulator: it computes real
// algorithm results in ordinary Go memory while emitting every logical
// memory access to the simulated machine (see core.Ctx). The programming
// interface is unchanged between the baseline and OMEGA machines, which is
// the paper's headline deployment property.
package ligra

import (
	"omega/internal/core"
	"omega/internal/graph"
	"omega/internal/memsys"
	"omega/internal/pisc"
	"omega/internal/scratchpad"
)

// The instruction-count charges of the compiled Ligra inner loops; they
// convert framework bookkeeping into cpu.Exec cycles.
const (
	// perEdge is charged for each edge processed (index arithmetic,
	// compare, branch).
	perEdge = 4
	// perVertex is charged for each vertex visited in a map.
	perVertex = 6
	// perFrontierCheck is charged per dense-frontier membership test.
	perFrontierCheck = 1
	// denseThresholdDen makes Ligra's |E|/20 sparse/dense switching
	// threshold.
	denseThresholdDen = 20
)

// Framework binds a graph to a machine: it allocates the simulated regions
// for the CSR arrays and manages property arrays and frontiers.
type Framework struct {
	m *core.Machine
	g *graph.Graph

	outOffsets *core.Region
	outEdges   *core.Region
	inOffsets  *core.Region
	inEdges    *core.Region
	outWeights *core.Region
	inWeights  *core.Region

	props []*PropArray

	// densePull selects Ligra's gather-style dense traversal (edgeMapDense)
	// instead of the default scatter-style edgeMapDenseForward. The paper's
	// atomic-centric characterization (Table II) corresponds to the
	// forward variant, so forward is the default.
	densePull bool

	configured bool
	resident   int

	// frontierSize caches the size of the frontier entering the current
	// edgeMap, feeding the "ligra/frontier_size" gauge. It is maintained
	// only while a telemetry sink is attached (Size() walks dense
	// bitmaps, too costly to pay unobserved).
	frontierSize uint64

	// Mode statistics for analysis: edgeMap invocations and edges
	// traversed per direction.
	DenseMaps   int
	SparseMaps  int
	DenseEdges  uint64
	SparseEdges uint64
}

// New binds graph g to machine m.
func New(m *core.Machine, g *graph.Graph) *Framework {
	f := &Framework{m: m, g: g}
	n := g.NumVertices()
	e := g.NumEdges()
	f.outOffsets = m.Alloc("edgeList.outOffsets", n+1, 8, memsys.KindEdgeList)
	f.outEdges = m.Alloc("edgeList.outEdges", max(e, 1), 4, memsys.KindEdgeList)
	f.inOffsets = m.Alloc("edgeList.inOffsets", n+1, 8, memsys.KindEdgeList)
	f.inEdges = m.Alloc("edgeList.inEdges", max(e, 1), 4, memsys.KindEdgeList)
	if g.Weighted() {
		f.outWeights = m.Alloc("edgeList.outWeights", max(e, 1), 4, memsys.KindEdgeList)
		f.inWeights = m.Alloc("edgeList.inWeights", max(e, 1), 4, memsys.KindEdgeList)
	}
	// The nGraphData region models Ligra's loop temporaries and counters.
	// Nothing accesses it, but it holds its place in the address map and
	// in the alloc gauges.
	m.Alloc("nGraphData", max(n, 1), 8, memsys.KindNGraphData)

	// Register framework-level probes on the machine's registry. The
	// registry replaces on re-registration (latest wins), so binding a
	// new framework to a machine re-points the gauges instead of
	// duplicating them.
	reg := m.Metrics()
	reg.RegisterGauge("ligra", "frontier_size", "", func() uint64 { return f.frontierSize })
	reg.RegisterCounter("ligra", "dense_maps", "", func() uint64 { return uint64(f.DenseMaps) })
	reg.RegisterCounter("ligra", "sparse_maps", "", func() uint64 { return uint64(f.SparseMaps) })
	reg.RegisterCounter("ligra", "dense_edges", "", func() uint64 { return f.DenseEdges })
	reg.RegisterCounter("ligra", "sparse_edges", "", func() uint64 { return f.SparseEdges })
	reg.RegisterGauge("ligra", "resident", "", func() uint64 { return uint64(f.resident) })
	return f
}

// Machine returns the bound machine.
func (f *Framework) Machine() *core.Machine { return f.m }

// Graph returns the bound graph.
func (f *Framework) Graph() *graph.Graph { return f.g }

// SetDensePull switches dense edgeMaps to the gather (pull) variant.
func (f *Framework) SetDensePull(pull bool) { f.densePull = pull }

// NumVertices is a convenience accessor.
func (f *Framework) NumVertices() int { return f.g.NumVertices() }

// PropArray is one vtxProp structure: functional 64-bit values plus the
// simulated region that gives every entry an address.
type PropArray struct {
	Name   string
	Region *core.Region
	vals   []pisc.Value
	fw     *Framework
}

// NewProp allocates a vtxProp array with entryBytes-sized simulated
// entries, initialized to init.
func (f *Framework) NewProp(name string, entryBytes int, init pisc.Value) *PropArray {
	if f.configured {
		panic("ligra: NewProp after Configure")
	}
	n := f.g.NumVertices()
	p := &PropArray{
		Name:   name,
		Region: f.m.Alloc("vtxProp."+name, max(n, 1), entryBytes, memsys.KindVtxProp),
		vals:   make([]pisc.Value, n),
		fw:     f,
	}
	for i := range p.vals {
		p.vals[i] = init
	}
	f.props = append(f.props, p)
	return p
}

// Configure loads the machine's scratchpad monitor registers and PISC
// microcode for the registered properties — the startup code the paper's
// source-to-source translation tool generates (§V.F). Call it after all
// NewProp calls and before running the algorithm. Returns the number of
// scratchpad-resident vertices (0 on the baseline machine).
func (f *Framework) Configure(mc pisc.Microcode) int {
	monitors := make([]scratchpad.MonitorRegister, 0, len(f.props))
	for _, p := range f.props {
		monitors = append(monitors, f.m.MonitorFor(p.Region))
	}
	f.resident = f.m.ConfigureGraph(monitors, f.g.NumVertices(), mc)
	f.configured = true
	return f.resident
}

// Resident returns the scratchpad-resident vertex count.
func (f *Framework) Resident() int { return f.resident }

// Raw returns the functional values without emitting simulated accesses
// (initialization and result extraction).
func (p *PropArray) Raw() []pisc.Value { return p.vals }

// Fill sets every entry functionally (no simulation).
func (p *PropArray) Fill(v pisc.Value) {
	for i := range p.vals {
		p.vals[i] = v
	}
}

// Get reads entry v, emitting a plain load.
func (p *PropArray) Get(ctx *core.Ctx, v uint32) pisc.Value {
	ctx.Read(p.Region, int(v))
	return p.vals[v]
}

// GetSrc reads entry v as a source-vertex read (buffer-eligible on OMEGA).
func (p *PropArray) GetSrc(ctx *core.Ctx, v uint32) pisc.Value {
	ctx.ReadSrc(p.Region, int(v))
	return p.vals[v]
}

// Set writes entry v, emitting a store.
func (p *PropArray) Set(ctx *core.Ctx, v uint32, val pisc.Value) {
	ctx.Write(p.Region, int(v))
	p.vals[v] = val
}

// Update applies op(current, operand) non-atomically (pull-mode updates
// where one thread owns the destination), emitting a read and, when the
// value changes, a write.
func (p *PropArray) Update(ctx *core.Ctx, v uint32, op pisc.Op, operand pisc.Value) bool {
	ctx.Read(p.Region, int(v))
	nv, changed := op.Apply(p.vals[v], operand)
	if changed {
		p.vals[v] = nv
		ctx.Write(p.Region, int(v))
	}
	return changed
}

// AtomicUpdate applies op atomically (push-mode updates), emitting one
// atomic access; OMEGA machines offload it to the home PISC. Returns
// whether the value changed.
func (p *PropArray) AtomicUpdate(ctx *core.Ctx, v uint32, op pisc.Op, operand pisc.Value) bool {
	ctx.Atomic(p.Region, int(v))
	nv, changed := op.Apply(p.vals[v], operand)
	if mask := ctx.TakeALUFault(); mask != 0 {
		// Injected PISC ALU transient: the offloaded op computed a wrong
		// value. The corruption lands in the functional result — algorithm
		// outputs go wrong silently, exactly what SDC classification and
		// re-execution recovery exist for.
		nv ^= pisc.Value(mask)
		changed = true
	}
	if changed {
		p.vals[v] = nv
	}
	return changed
}

// Value reads entry v functionally (no simulated access).
func (p *PropArray) Value(v uint32) pisc.Value { return p.vals[v] }

// OutEdgesRegion exposes the simulated out-edge array region for
// algorithms with custom scan orders (e.g. TC's intersections).
func (f *Framework) OutEdgesRegion() *core.Region { return f.outEdges }

// edgeSpanGrain bounds how many edges of one source vertex form a single
// parallel work item. Ligra splits high-degree vertices' edge lists across
// workers the same way; without this, a hub's edges serialize on one core
// and the barrier waits for it.
const edgeSpanGrain = 128

// edgeSpan is one parallel work item: a slice of a source's out-edges.
type edgeSpan struct {
	src    uint32
	lo, hi int // neighbor-index range within src's list
}

// buildSpans splits the given sources into edge spans.
func (f *Framework) buildSpans(sources []uint32) []edgeSpan {
	spans := make([]edgeSpan, 0, len(sources)+8)
	for _, s := range sources {
		deg := f.g.OutDegree(graph.VertexID(s))
		if deg == 0 {
			continue
		}
		for lo := 0; lo < deg; lo += edgeSpanGrain {
			hi := lo + edgeSpanGrain
			if hi > deg {
				hi = deg
			}
			spans = append(spans, edgeSpan{src: s, lo: lo, hi: hi})
		}
	}
	return spans
}

// ParallelOutEdges processes the out-edges of the given sources in
// parallel with Ligra-style granular splitting: each span of up to
// edgeSpanGrain edges is an independent work item. pre runs once per span
// (charge per-vertex costs and source-side reads there); edge runs per
// out-edge with the neighbor's global edge index, destination, and weight.
func (f *Framework) ParallelOutEdges(sources []uint32,
	pre func(ctx *core.Ctx, s uint32),
	edge func(ctx *core.Ctx, s uint32, j int, d uint32, w int32)) {
	spans := f.buildSpans(sources)
	f.m.ParallelForGrain(len(spans), 1, func(ctx *core.Ctx, i int) {
		sp := spans[i]
		s := sp.src
		if pre != nil {
			pre(ctx, s)
		}
		ctx.Read(f.outOffsets, int(s))
		neighbors := f.g.OutNeighbors(graph.VertexID(s))
		weights := f.g.OutWeights(graph.VertexID(s))
		base := int(f.g.OutOffsets[s])
		for j := sp.lo; j < sp.hi; j++ {
			ctx.Exec(perEdge)
			ctx.Read(f.outEdges, base+j)
			var w int32 = 1
			if weights != nil {
				ctx.Read(f.outWeights, base+j)
				w = weights[j]
			}
			edge(ctx, s, base+j, neighbors[j], w)
		}
	})
}

// EmitInEdgeScan charges the offset read and the sequential edge (and
// weight) reads of iterating d's incoming edges, invoking fn once per edge
// with the edge's position, source, and weight.
func (f *Framework) EmitInEdgeScan(ctx *core.Ctx, d uint32, fn func(j int, s uint32, w int32)) {
	ctx.Read(f.inOffsets, int(d))
	neighbors := f.g.InNeighbors(graph.VertexID(d))
	weights := f.g.InWeightsOf(graph.VertexID(d))
	base := int(f.g.InOffsets[d])
	for j, s := range neighbors {
		ctx.Exec(perEdge)
		ctx.Read(f.inEdges, base+j)
		var w int32 = 1
		if weights != nil {
			ctx.Read(f.inWeights, base+j)
			w = weights[j]
		}
		fn(j, s, w)
	}
}
