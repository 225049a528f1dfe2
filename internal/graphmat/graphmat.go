// Package graphmat is a second, GraphMat-style graph framework (Sundaram
// et al., VLDB'15) on top of the same simulated machines, demonstrating
// the paper's framework-independence claim: §V.F applies the
// source-to-source tool "to GraphMat [40] in addition to Ligra", and §IV
// notes that GraphMat-class frameworks "partition the dataset so that only
// a single thread modifies vtxProp at a time", avoiding atomics.
//
// The programming model is generalized sparse-matrix–vector multiplication
// over vertex programs: each iteration SCATTERs messages from active
// sources along edges, REDUCEs messages per destination with a semiring
// add (the operation OMEGA offloads), and APPLYs the reduced value to the
// destination's property. Destinations are partitioned across cores, so
// reduction needs no atomics — updates to scratchpad-resident vertices are
// still served word-size by the home slice.
package graphmat

import (
	"omega/internal/core"
	"omega/internal/graph"
	"omega/internal/ligra"
	"omega/internal/pisc"
)

// VertexProgram defines one algorithm in the scatter/reduce/apply style.
type VertexProgram struct {
	// Name labels the program.
	Name string
	// ReduceOp is the semiring "add" combining messages per destination —
	// the operation a PISC would execute.
	ReduceOp pisc.Op
	// Identity is the reduction identity (initial message accumulator).
	Identity pisc.Value
	// SendMessage produces a message from the source vertex's property
	// and the edge weight; ok=false suppresses the message.
	SendMessage func(srcProp pisc.Value, w int32) (msg pisc.Value, ok bool)
	// Apply folds the reduced message into vertex v's property, returning
	// the new value and whether the vertex becomes active.
	Apply func(v uint32, oldProp, reduced pisc.Value) (newProp pisc.Value, activate bool)
	// InitProp gives the initial property for vertex v.
	InitProp func(v uint32) pisc.Value
	// ApplyAll runs Apply on every vertex each iteration (with the
	// reduction identity for untouched ones) instead of only on vertices
	// that received messages — PageRank's base-term semantics.
	ApplyAll bool
}

// Engine runs vertex programs on a machine, GraphMat style.
type Engine struct {
	fw    *ligra.Framework
	g     *graph.Graph
	prop  *ligra.PropArray
	accum *ligra.PropArray
	prog  VertexProgram
}

// New builds an engine for one program run. The underlying ligra.Framework
// provides the simulated CSR regions and property arrays; the traversal
// and update discipline here are GraphMat's, not Ligra's.
func New(m *core.Machine, g *graph.Graph, prog VertexProgram) *Engine {
	fw := ligra.New(m, g)
	e := &Engine{fw: fw, g: g, prog: prog}
	e.prop = fw.NewProp(prog.Name+".prop", 8, 0)
	// The message accumulator is itself a vtxProp: on OMEGA it lives in
	// the scratchpads and the PISCs reduce into it (§V.F: the translated
	// GraphMat update is offloaded like Ligra's).
	e.accum = fw.NewProp(prog.Name+".accum", 8, prog.Identity)
	for v := 0; v < g.NumVertices(); v++ {
		e.prop.Raw()[v] = prog.InitProp(uint32(v))
	}
	// The translated configuration (§V.F): the reduce op becomes the
	// PISC microcode; no active-list tracking — GraphMat scans.
	fw.Configure(pisc.StandardMicrocode(prog.Name, prog.ReduceOp, false, false))
	return e
}

// RunResult reports a run's convergence.
type RunResult struct {
	Iterations int
	Converged  bool
}

// Run executes up to maxIters scatter/reduce/apply iterations, starting
// with the given active set (nil = all vertices). It stops early when an
// iteration activates no vertex.
func (e *Engine) Run(active []uint32, maxIters int) RunResult {
	n := e.g.NumVertices()
	m := e.fw.Machine()
	isActive := make([]bool, n)
	anyActive := false
	if active == nil {
		for v := range isActive {
			isActive[v] = true
		}
		anyActive = n > 0
	} else {
		for _, v := range active {
			isActive[v] = true
			anyActive = true
		}
	}
	// touched marks destinations that received any message this
	// iteration; the reduced values live in e.accum.
	touched := make([]bool, n)
	usePISC := m.Config().PISC

	res := RunResult{}
	for it := 0; it < maxIters && anyActive; it++ {
		res.Iterations++
		m.BeginIteration()
		// Reset the accumulators (a sequential vtxProp sweep; on OMEGA
		// it is chunk-local in the scratchpads).
		m.ParallelFor(n, func(ctx *core.Ctx, v int) {
			ctx.Exec(1)
			if e.accum.Value(uint32(v)) != e.prog.Identity {
				e.accum.Set(ctx, uint32(v), e.prog.Identity)
			}
			touched[v] = false
		})
		if usePISC {
			// OMEGA path (§V.F): the translated update is offloaded —
			// each active source streams its out-edges and fires one
			// word-size reduce per edge at the destination's home PISC.
			var sources []uint32
			for v := 0; v < n; v++ {
				if isActive[v] {
					sources = append(sources, uint32(v))
				}
			}
			e.fw.ParallelOutEdges(sources,
				func(ctx *core.Ctx, s uint32) { ctx.Exec(2) },
				func(ctx *core.Ctx, s uint32, j int, d uint32, w int32) {
					srcProp := e.prop.GetSrc(ctx, s)
					msg, ok := e.prog.SendMessage(srcProp, w)
					if !ok {
						return
					}
					e.accum.AtomicUpdate(ctx, d, e.prog.ReduceOp, msg)
					touched[d] = true
				})
		} else {
			// Baseline path: GraphMat's atomic-free discipline —
			// destinations are partitioned across cores and each worker
			// gathers its vertices' in-edges, reducing privately.
			m.ParallelFor(n, func(ctx *core.Ctx, d int) {
				ctx.Exec(4)
				e.fw.EmitInEdgeScan(ctx, uint32(d), func(j int, s uint32, w int32) {
					if !isActive[s] {
						return
					}
					srcProp := e.prop.GetSrc(ctx, s)
					msg, ok := e.prog.SendMessage(srcProp, w)
					if !ok {
						return
					}
					e.accum.Update(ctx, uint32(d), e.prog.ReduceOp, msg)
					touched[d] = true
					ctx.Exec(2)
				})
			})
		}
		// APPLY: one non-atomic read-modify-write per touched vertex;
		// on OMEGA the resident ones go to the scratchpads at word
		// granularity.
		nextActive := make([]bool, n)
		anyActive = false
		m.ParallelFor(n, func(ctx *core.Ctx, d int) {
			ctx.Exec(2)
			if !touched[d] && !e.prog.ApplyAll {
				return
			}
			old := e.prop.Get(ctx, uint32(d))
			nv, activate := e.prog.Apply(uint32(d), old, e.accum.Value(uint32(d)))
			if nv != old {
				e.prop.Set(ctx, uint32(d), nv)
			}
			if activate {
				nextActive[d] = true
				anyActive = true
			}
		})
		isActive = nextActive
	}
	res.Converged = !anyActive
	return res
}
