package ligra

import (
	"slices"

	"omega/internal/core"
	"omega/internal/memsys"
)

// VertexSubset is Ligra's frontier abstraction: a set of active vertices
// with either a sparse (ID list) or dense (bit per vertex) representation.
// The simulated backing store is an active-list region (Table II's
// "active-list" column is about maintaining these).
type VertexSubset struct {
	n      int
	dense  []bool
	sparse []uint32
	// isDense selects the current representation.
	isDense bool
	region  *core.Region
}

// NewVertexSubsetSparse builds a sparse frontier from IDs (deduplicated,
// sorted for determinism).
func (f *Framework) NewVertexSubsetSparse(ids []uint32) *VertexSubset {
	sorted := append([]uint32(nil), ids...)
	slices.Sort(sorted)
	out := sorted[:0]
	var last uint32
	for i, v := range sorted {
		if i > 0 && v == last {
			continue
		}
		out = append(out, v)
		last = v
	}
	return &VertexSubset{
		n:      f.g.NumVertices(),
		sparse: out,
		region: f.allocActiveRegion(),
	}
}

// NewVertexSubsetAll builds a dense frontier containing every vertex.
func (f *Framework) NewVertexSubsetAll() *VertexSubset {
	n := f.g.NumVertices()
	d := make([]bool, n)
	for i := range d {
		d[i] = true
	}
	return &VertexSubset{n: n, dense: d, isDense: true, region: f.allocActiveRegion()}
}

// NewVertexSubsetEmpty builds an empty sparse frontier.
func (f *Framework) NewVertexSubsetEmpty() *VertexSubset {
	return &VertexSubset{n: f.g.NumVertices(), region: f.allocActiveRegion()}
}

func (f *Framework) allocActiveRegion() *core.Region {
	return f.m.Alloc("activeList", max(f.g.NumVertices(), 1), 1, memsys.KindActiveList)
}

// Size returns the number of active vertices.
func (s *VertexSubset) Size() int {
	if !s.isDense {
		return len(s.sparse)
	}
	c := 0
	for _, b := range s.dense {
		if b {
			c++
		}
	}
	return c
}

// IsEmpty reports whether no vertex is active.
func (s *VertexSubset) IsEmpty() bool { return s.Size() == 0 }

// toDense converts to the dense representation, charging the parallel
// conversion pass Ligra performs (writes one byte per active vertex).
func (f *Framework) toDense(s *VertexSubset) {
	if s.isDense {
		return
	}
	d := make([]bool, s.n)
	ids := s.sparse
	f.m.ParallelFor(len(ids), func(ctx *core.Ctx, i int) {
		ctx.Exec(perVertex)
		ctx.Write(s.region, int(ids[i]))
		d[ids[i]] = true
	})
	s.dense = d
	s.isDense = true
	s.sparse = nil
}

// toSparse converts to the sparse representation, charging the scan.
func (f *Framework) toSparse(s *VertexSubset) {
	if !s.isDense {
		return
	}
	var ids []uint32
	f.m.ParallelFor(s.n, func(ctx *core.Ctx, i int) {
		ctx.Exec(1)
		ctx.Read(s.region, i)
	})
	// The compaction result is produced deterministically outside the
	// per-core closures (prefix-sum compaction in real Ligra).
	for v, b := range s.dense {
		if b {
			ids = append(ids, uint32(v))
		}
	}
	s.sparse = ids
	s.isDense = false
	s.dense = nil
}
