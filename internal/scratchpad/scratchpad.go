// Package scratchpad implements OMEGA's distributed scratchpad storage and
// its controller (paper §V.A, Figure 7): the address-monitoring registers
// that recognize vtxProp accesses, the partition unit that maps a vertex to
// its home scratchpad, the index unit that locates the line inside that
// scratchpad, and the per-core read-only source vertex buffer (§V.C).
package scratchpad

import (
	"fmt"

	"omega/internal/memsys"
	"omega/internal/stats"
)

// MonitorRegister describes one vtxProp array to the controller (Figure 7
// left: start_addr, type_size, stride), extended with the element count so
// the index unit can bound-check.
type MonitorRegister struct {
	// StartAddr is the base address of the vtxProp array.
	StartAddr memsys.Addr
	// TypeSize is the size in bytes of the primitive stored per vertex.
	TypeSize uint8
	// Stride is the distance between consecutive vertices' entries;
	// equal to TypeSize unless the property lives inside a struct.
	Stride uint32
	// Count is the number of vertices covered.
	Count uint32
}

// Contains reports whether addr falls inside this register's array and, if
// so, which vertex it addresses.
func (m MonitorRegister) Contains(addr memsys.Addr) (vertex uint32, ok bool) {
	if addr < m.StartAddr {
		return 0, false
	}
	off := uint64(addr - m.StartAddr)
	v := off / uint64(m.Stride)
	if v >= uint64(m.Count) {
		return 0, false
	}
	rem := off % uint64(m.Stride)
	if rem >= uint64(m.TypeSize) {
		return 0, false
	}
	return uint32(v), true
}

const (
	// slices is the number of scratchpad slices, one per core.
	slices = memsys.NumCores
	// srcBufEntries sizes the per-core source vertex buffer (§V.C).
	srcBufEntries = 64
)

// Config sizes the distributed scratchpads; the slice count, access
// latency (memsys.SPLat) and source buffer size are Table III constants.
type Config struct {
	// BytesPerCore is the slice capacity.
	BytesPerCore int
	// ChunkSize is the interleaving chunk of the vertex->slice mapping;
	// OMEGA configures it to match the framework's OpenMP chunk (§V.D).
	// It must be positive.
	ChunkSize int
}

// Controller is the distributed scratchpad controller: one logical entity
// in the model, representing the per-core controllers of Figure 7.
// Not safe for concurrent use.
type Controller struct {
	cfg      Config
	monitors []MonitorRegister
	// residentCount is how many vertices (0..residentCount-1, i.e. the
	// most-connected after in-degree reordering) live in scratchpads.
	residentCount uint32
	// faulty holds vertex lines degraded by parity errors: they are no
	// longer scratchpad-resident and fall back to the cache hierarchy
	// (graceful degradation — slower, never wrong). nil until the first
	// fault.
	faulty map[uint32]struct{}

	// Stats
	LocalAccesses  stats.Counter
	RemoteAccesses stats.Counter
	SrcBufHits     stats.Ratio
	// ActiveBitSets counts dense active-list bit updates done in-SP.
	ActiveBitSets stats.Counter

	srcBufs [slices]srcBuffer
}

// NewController builds the controller.
func NewController(cfg Config) *Controller {
	if cfg.BytesPerCore <= 0 {
		panic(fmt.Sprintf("scratchpad: bad config %+v", cfg))
	}
	c := &Controller{cfg: cfg}
	for i := range c.srcBufs {
		c.srcBufs[i].index = make(map[uint32]int, srcBufEntries)
	}
	return c
}

// Configure registers the vtxProp arrays for the running algorithm and
// computes how many of the hottest vertices fit. The framework calls this
// at application start (the paper's generated configuration code, §V.F).
// totalVertices bounds residency. It returns the resident count.
func (c *Controller) Configure(monitors []MonitorRegister, totalVertices int) int {
	c.monitors = append(c.monitors[:0], monitors...)
	// A vertex line holds every registered property of the vertex (§V.A)
	// plus one active-list tracking bit per property, rounded up to whole
	// bytes.
	bytes := 0
	for i := range c.monitors {
		bytes += int(c.monitors[i].TypeSize)
	}
	bits := len(c.monitors)
	bytes += (bits + 7) / 8
	if bytes == 0 {
		c.residentCount = 0
		return 0
	}
	capVertices := slices * uint64(c.cfg.BytesPerCore) / uint64(bytes)
	if capVertices > uint64(totalVertices) {
		capVertices = uint64(totalVertices)
	}
	c.residentCount = uint32(capVertices)
	return int(capVertices)
}

// ResidentCount returns how many vertices are scratchpad-resident.
func (c *Controller) ResidentCount() int { return int(c.residentCount) }

// Match implements the monitor unit: it reports whether addr belongs to a
// registered vtxProp array of a scratchpad-resident vertex. Vertex lines
// degraded by parity errors are reported non-resident, redirecting their
// accesses to the cache hierarchy.
func (c *Controller) Match(addr memsys.Addr) (vertex uint32, resident bool) {
	for i := range c.monitors {
		if v, ok := c.monitors[i].Contains(addr); ok {
			if _, bad := c.faulty[v]; bad {
				return v, false
			}
			return v, v < c.residentCount
		}
	}
	return 0, false
}

// MarkFaulty degrades one vertex line after a parity error: the vertex is
// excluded from residency and all its future accesses take the cache
// path. It reports whether the line was newly degraded.
func (c *Controller) MarkFaulty(vertex uint32) bool {
	if c.faulty == nil {
		c.faulty = make(map[uint32]struct{})
	}
	if _, ok := c.faulty[vertex]; ok {
		return false
	}
	c.faulty[vertex] = struct{}{}
	return true
}

// DegradedCount returns how many vertex lines parity errors have degraded
// to the cache hierarchy.
func (c *Controller) DegradedCount() int { return len(c.faulty) }

// Home implements the partition unit: the scratchpad slice holding vertex.
// Vertices are distributed in chunks of ChunkSize round-robin across
// slices (§V.D).
func (c *Controller) Home(vertex uint32) int {
	return int(uint64(vertex) / uint64(c.cfg.ChunkSize) % slices)
}

// RecordAccess tallies a local or remote slice access.
func (c *Controller) RecordAccess(local bool) {
	if local {
		c.LocalAccesses.Inc()
	} else {
		c.RemoteAccesses.Inc()
	}
}

// SrcBufLookup consults core's source vertex buffer for vertex; on a miss
// the entry is installed (the fill happens on the way back from the remote
// slice, §V.C).
func (c *Controller) SrcBufLookup(core int, vertex uint32) (hit bool) {
	hit = c.srcBufs[core].lookupInsert(vertex)
	c.SrcBufHits.Observe(hit)
	return hit
}

// InvalidateSrcBufs clears every core's buffer; OMEGA does this at the end
// of each algorithm iteration, which is what makes the buffers coherence-
// free (§V.C).
func (c *Controller) InvalidateSrcBufs() {
	for i := range c.srcBufs {
		c.srcBufs[i].invalidate()
	}
}

// srcBuffer is a small fully-associative read-only buffer with FIFO
// replacement.
type srcBuffer struct {
	entries [srcBufEntries]uint32
	valid   [srcBufEntries]bool
	next    int
	index   map[uint32]int
}

func (b *srcBuffer) lookupInsert(vertex uint32) bool {
	if i, ok := b.index[vertex]; ok && b.valid[i] && b.entries[i] == vertex {
		return true
	}
	// Install, evicting FIFO.
	i := b.next
	b.next = (b.next + 1) % srcBufEntries
	if b.valid[i] {
		delete(b.index, b.entries[i])
	}
	b.entries[i] = vertex
	b.valid[i] = true
	b.index[vertex] = i
	return false
}

func (b *srcBuffer) invalidate() {
	b.valid = [srcBufEntries]bool{}
	clear(b.index)
	b.next = 0
}
