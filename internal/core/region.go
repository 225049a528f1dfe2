package core

import (
	"fmt"

	"omega/internal/memsys"
)

// Region is a simulated allocation: a named, contiguous range of the
// simulated address space backing one logical array of the framework
// (a vtxProp array, the edge list, a frontier, ...). The framework keeps
// the *functional* data in ordinary Go slices; Regions exist so every
// logical access has a concrete simulated address for the caches,
// scratchpad monitor registers, and DRAM mapping to chew on.
type Region struct {
	// Name labels the region ("next_pagerank", "edgeList.out", ...).
	Name string
	// Base is the simulated base address (page aligned).
	Base memsys.Addr
	// ElemSize is the per-element size in bytes.
	ElemSize int
	// Count is the element count.
	Count int
	// Kind classifies the region for the heterogeneous hierarchy.
	Kind memsys.Kind
}

// Addr returns the simulated address of element i. One unsigned compare
// bounds i (a negative i wraps past Count) and the panic is formatted out
// of line, so Addr inlines into the access path.
func (r *Region) Addr(i int) memsys.Addr {
	if uint(i) >= uint(r.Count) {
		r.indexPanic(i)
	}
	return r.Base + memsys.Addr(i*r.ElemSize)
}

// indexPanic reports an out-of-range element index. It is kept out of
// line so its formatting does not count against Addr's inlining budget.
//
//go:noinline
func (r *Region) indexPanic(i int) {
	panic(fmt.Sprintf("core: region %s index %d out of [0,%d)", r.Name, i, r.Count))
}

// lineRange returns the indices [lo, lo+span) of the elements of r whose
// start address lies in line: exactly the i in [0, Count) for which
// LineAddr(r.Addr(i)) == line, so an element straddling two lines belongs
// to the line it starts in. line must hold the start of some element.
func (r *Region) lineRange(line memsys.Addr) (lo int, span uint) {
	es := memsys.Addr(r.ElemSize)
	var first memsys.Addr // first index starting at or after line
	if line > r.Base {
		first = (line - r.Base + es - 1) / es
	}
	// end is the first index starting at or after the next line.
	end := min((line+memsys.LineSize-r.Base+es-1)/es, memsys.Addr(r.Count))
	return int(first), uint(end - first)
}

// Bytes returns the total region size.
func (r *Region) Bytes() int { return r.ElemSize * r.Count }

const pageSize = 4096

// Alloc reserves a region of count elements of elemSize bytes. Regions are
// page-aligned and never recycled within a run (the simulated address
// space is 64-bit).
func (m *Machine) Alloc(name string, count, elemSize int, kind memsys.Kind) *Region {
	if count < 0 || elemSize <= 0 || elemSize > 64 {
		panic(fmt.Sprintf("core: bad alloc %s count=%d elem=%d", name, count, elemSize))
	}
	base := m.nextAddr
	r := &Region{Name: name, Base: base, ElemSize: elemSize, Count: count, Kind: kind}
	size := memsys.Addr(count * elemSize)
	m.nextAddr = (base + size + pageSize - 1) &^ (pageSize - 1)
	m.regions = append(m.regions, r)
	return r
}

// Regions returns all allocations made so far (for debugging and the
// translation tool's configuration dump).
func (m *Machine) Regions() []*Region {
	out := make([]*Region, len(m.regions))
	copy(out, m.regions)
	return out
}
