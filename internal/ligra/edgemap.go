package ligra

import (
	"slices"

	"omega/internal/core"
	"omega/internal/graph"
)

// EdgeMapFns bundles the per-edge callbacks of an edgeMap, mirroring
// Ligra's (update, updateAtomic, cond) triple.
type EdgeMapFns struct {
	// UpdateAtomic processes edge s->d in push (sparse) mode using
	// atomic updates; it returns whether d became newly active.
	UpdateAtomic func(ctx *core.Ctx, s, d uint32, w int32) bool
	// Update processes edge s->d in pull (dense) mode, where a single
	// simulated thread owns destination d and atomics are unnecessary;
	// it returns whether d became newly active.
	Update func(ctx *core.Ctx, s, d uint32, w int32) bool
	// Cond gates destinations: edges into d where Cond is false are
	// skipped, and pull-mode processing of d stops once it turns false.
	// nil means always true.
	Cond func(ctx *core.Ctx, d uint32) bool
}

// Mode forces an edgeMap traversal direction.
type Mode int

const (
	// Auto applies Ligra's |frontier|+outDegree > |E|/20 threshold.
	Auto Mode = iota
	// Push forces sparse traversal.
	Push
	// Pull forces dense traversal.
	Pull
)

// EdgeMap applies fns over the edges leaving frontier, returning the new
// frontier. It reproduces Ligra's direction-switching heuristic and the
// bookkeeping traffic of frontier maintenance.
func (f *Framework) EdgeMap(frontier *VertexSubset, fns EdgeMapFns, mode Mode) *VertexSubset {
	if f.m.SinkAttached() {
		// Publish the frontier entering this edgeMap before the iteration
		// boundary emits: the frontier is the previous iteration's output,
		// so the sample closing that iteration carries it.
		f.frontierSize = uint64(frontier.Size())
	}
	f.m.BeginIteration()
	switch mode {
	case Push:
		return f.edgeMapSparse(frontier, fns)
	case Pull:
		return f.edgeMapDense(frontier, fns)
	}
	size := frontier.Size()
	outDeg := f.frontierOutDegree(frontier)
	if size+outDeg > f.g.NumEdges()/denseThresholdDen {
		return f.edgeMapDense(frontier, fns)
	}
	return f.edgeMapSparse(frontier, fns)
}

// frontierOutDegree computes the summed out-degree of the frontier — the
// reduction Ligra performs each iteration to pick a direction. The offset
// reads are charged to the machine.
func (f *Framework) frontierOutDegree(s *VertexSubset) int {
	total := 0
	if s.isDense {
		f.m.ParallelFor(s.n, func(ctx *core.Ctx, i int) {
			ctx.Exec(1)
			ctx.Read(s.region, i)
			if s.dense[i] {
				ctx.Read(f.outOffsets, i)
				total += f.g.OutDegree(graph.VertexID(i))
			}
		})
		return total
	}
	ids := s.sparse
	f.m.ParallelFor(len(ids), func(ctx *core.Ctx, i int) {
		ctx.Exec(2)
		ctx.Read(s.region, i)
		ctx.Read(f.outOffsets, int(ids[i]))
		total += f.g.OutDegree(graph.VertexID(ids[i]))
	})
	return total
}

// edgeMapSparse is push-mode traversal: each frontier vertex scatters
// along its out-edges with atomic updates.
func (f *Framework) edgeMapSparse(frontier *VertexSubset, fns EdgeMapFns) *VertexSubset {
	f.SparseMaps++
	f.toSparse(frontier)
	out := f.NewVertexSubsetEmpty()
	inOut := make([]bool, f.g.NumVertices())
	var appended []uint32
	suppressSP := f.m.Config().PISC

	ids := frontier.sparse
	f.ParallelOutEdges(ids,
		func(ctx *core.Ctx, s uint32) {
			ctx.Exec(perVertex)
			ctx.Read(frontier.region, int(s))
		},
		func(ctx *core.Ctx, s uint32, j int, d uint32, w int32) {
			f.SparseEdges++
			if fns.Cond != nil && !fns.Cond(ctx, d) {
				return
			}
			if fns.UpdateAtomic(ctx, s, d, w) && !inOut[d] {
				inOut[d] = true
				appended = append(appended, d)
				// Active-list maintenance: on OMEGA the PISC sets the
				// dense bit / emits the sparse ID in-scratchpad for
				// resident vertices (§V.B); otherwise the core writes it.
				if !(suppressSP && int(d) < f.resident) {
					ctx.Write(out.region, int(d))
				}
			}
		})
	out.sparse = dedupSorted(appended)
	return out
}

// edgeMapDense dispatches to the configured dense traversal.
func (f *Framework) edgeMapDense(frontier *VertexSubset, fns EdgeMapFns) *VertexSubset {
	f.DenseMaps++
	f.toDense(frontier)
	if !f.densePull {
		return f.edgeMapDenseForward(frontier, fns)
	}
	return f.edgeMapDensePull(frontier, fns)
}

// edgeMapDenseForward is Ligra's edgeMapDenseForward: scatter-style dense
// traversal — every frontier vertex pushes along its out-edges with atomic
// updates, with the frontier membership test being a cheap sequential read
// of the vertex's own bit.
func (f *Framework) edgeMapDenseForward(frontier *VertexSubset, fns EdgeMapFns) *VertexSubset {
	out := f.NewVertexSubsetEmpty()
	out.isDense = true
	out.dense = make([]bool, f.g.NumVertices())
	suppressSP := f.m.Config().PISC

	// Membership scan: every vertex checks its own frontier bit (a cheap
	// sequential read), collecting the active sources.
	var active []uint32
	f.m.ParallelFor(f.g.NumVertices(), func(ctx *core.Ctx, s int) {
		ctx.Exec(perVertex)
		ctx.Read(frontier.region, s)
		if frontier.dense[s] {
			active = append(active, uint32(s))
		}
	})
	f.ParallelOutEdges(active, nil,
		func(ctx *core.Ctx, s uint32, j int, d uint32, w int32) {
			f.DenseEdges++
			if fns.Cond != nil && !fns.Cond(ctx, d) {
				return
			}
			if fns.UpdateAtomic(ctx, s, d, w) && !out.dense[d] {
				out.dense[d] = true
				if !(suppressSP && int(d) < f.resident) {
					ctx.Write(out.region, int(d))
				}
			}
		})
	return out
}

// edgeMapDensePull is Ligra's edgeMapDense: every vertex gathers from its
// in-neighbors that are in the frontier, without atomics.
func (f *Framework) edgeMapDensePull(frontier *VertexSubset, fns EdgeMapFns) *VertexSubset {
	out := f.NewVertexSubsetEmpty()
	out.isDense = true
	out.dense = make([]bool, f.g.NumVertices())
	out.sparse = nil
	update := fns.Update
	if update == nil {
		// Fall back to the atomic variant; correct, if conservative.
		update = fns.UpdateAtomic
	}

	f.m.ParallelFor(f.g.NumVertices(), func(ctx *core.Ctx, d int) {
		ctx.Exec(perVertex)
		if fns.Cond != nil && !fns.Cond(ctx, uint32(d)) {
			return
		}
		ctx.Read(f.inOffsets, d)
		neighbors := f.g.InNeighbors(graph.VertexID(d))
		weights := f.g.InWeightsOf(graph.VertexID(d))
		base := int(f.g.InOffsets[d])
		f.DenseEdges += uint64(len(neighbors))
		for j, s := range neighbors {
			ctx.Exec(perEdge + perFrontierCheck)
			ctx.Read(f.inEdges, base+j)
			ctx.Read(frontier.region, int(s))
			if !frontier.dense[s] {
				continue
			}
			var w int32 = 1
			if weights != nil {
				ctx.Read(f.inWeights, base+j)
				w = weights[j]
			}
			if update(ctx, s, uint32(d), w) && !out.dense[d] {
				out.dense[d] = true
				ctx.Write(out.region, d)
			}
			if fns.Cond != nil && !fns.Cond(ctx, uint32(d)) {
				break
			}
		}
	})
	return out
}

// dedupSorted returns the distinct IDs of ids in ascending order, in a
// new slice (nil for an empty input).
func dedupSorted(ids []uint32) []uint32 {
	if len(ids) == 0 {
		return nil
	}
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	return slices.Compact(sorted)
}

// VertexMap applies fn to every vertex in s, returning the subset where fn
// reported true. Costs are charged per visited vertex.
func (f *Framework) VertexMap(s *VertexSubset, fn func(ctx *core.Ctx, v uint32) bool) *VertexSubset {
	out := f.NewVertexSubsetEmpty()
	var kept []uint32
	if s.isDense {
		f.m.ParallelFor(s.n, func(ctx *core.Ctx, i int) {
			ctx.Exec(1)
			ctx.Read(s.region, i)
			if !s.dense[i] {
				return
			}
			ctx.Exec(perVertex)
			if fn(ctx, uint32(i)) {
				kept = append(kept, uint32(i))
				ctx.Write(out.region, i)
			}
		})
	} else {
		ids := s.sparse
		f.m.ParallelFor(len(ids), func(ctx *core.Ctx, i int) {
			ctx.Exec(perVertex)
			ctx.Read(s.region, i)
			if fn(ctx, ids[i]) {
				kept = append(kept, ids[i])
				ctx.Write(out.region, int(ids[i]))
			}
		})
	}
	out.sparse = dedupSorted(kept)
	return out
}

// ForAllVertices runs fn over every vertex (a vertexMap without a
// frontier, as in PageRank's per-iteration normalization).
func (f *Framework) ForAllVertices(fn func(ctx *core.Ctx, v uint32)) {
	f.m.ParallelFor(f.g.NumVertices(), func(ctx *core.Ctx, i int) {
		ctx.Exec(perVertex)
		fn(ctx, uint32(i))
	})
}
