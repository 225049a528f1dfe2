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
	// Slot is the property index within the scratchpad line (a line
	// holds all Props of one vertex, §V.A).
	Slot int
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

// Config sizes the distributed scratchpads.
type Config struct {
	// NumCores is the number of scratchpad slices (one per core).
	NumCores int
	// BytesPerCore is the slice capacity.
	BytesPerCore int
	// LatencyCycles is the slice access latency (3 in Table III).
	LatencyCycles memsys.Cycles
	// ChunkSize is the interleaving chunk of the vertex->slice mapping;
	// OMEGA configures it to match the framework's OpenMP chunk (§V.D).
	ChunkSize int
	// SrcBufferEntries sizes the per-core source vertex buffer.
	SrcBufferEntries int
}

// DefaultConfig returns a Table III-like scratchpad arrangement.
func DefaultConfig(numCores, bytesPerCore int) Config {
	return Config{
		NumCores:         numCores,
		BytesPerCore:     bytesPerCore,
		LatencyCycles:    3,
		ChunkSize:        64,
		SrcBufferEntries: 64,
	}
}

// Controller is the distributed scratchpad controller: one logical entity
// in the model, representing the per-core controllers of Figure 7.
// Not safe for concurrent use.
type Controller struct {
	cfg      Config
	monitors []MonitorRegister
	// bytesPerVertex is the line size: sum of all registered Props'
	// TypeSize, plus one active-list bit per property (rounded up inside
	// lineBytes).
	bytesPerVertex int
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

	srcBufs []*srcBuffer
}

// NewController builds the controller.
func NewController(cfg Config) *Controller {
	if cfg.NumCores <= 0 || cfg.BytesPerCore <= 0 {
		panic(fmt.Sprintf("scratchpad: bad config %+v", cfg))
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 1
	}
	c := &Controller{cfg: cfg}
	c.srcBufs = make([]*srcBuffer, cfg.NumCores)
	for i := range c.srcBufs {
		c.srcBufs[i] = newSrcBuffer(cfg.SrcBufferEntries)
	}
	return c
}

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// Configure registers the vtxProp arrays for the running algorithm and
// computes how many of the hottest vertices fit. The framework calls this
// at application start (the paper's generated configuration code, §V.F).
// totalVertices bounds residency. It returns the resident count.
func (c *Controller) Configure(monitors []MonitorRegister, totalVertices int) int {
	c.monitors = append(c.monitors[:0], monitors...)
	bytes := 0
	for i := range c.monitors {
		c.monitors[i].Slot = i
		bytes += int(c.monitors[i].TypeSize)
	}
	// One active-list tracking bit per vtxProp entry (§V.A), rounded up
	// to whole bytes per vertex line.
	bits := len(c.monitors)
	bytes += (bits + 7) / 8
	if bytes == 0 {
		c.bytesPerVertex = 0
		c.residentCount = 0
		return 0
	}
	c.bytesPerVertex = bytes
	capVertices := uint64(c.cfg.NumCores) * uint64(c.cfg.BytesPerCore) / uint64(bytes)
	if capVertices > uint64(totalVertices) {
		capVertices = uint64(totalVertices)
	}
	c.residentCount = uint32(capVertices)
	return int(capVertices)
}

// ResidentCount returns how many vertices are scratchpad-resident.
func (c *Controller) ResidentCount() int { return int(c.residentCount) }

// BytesPerVertex returns the scratchpad line size in bytes.
func (c *Controller) BytesPerVertex() int { return c.bytesPerVertex }

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
	return int(uint64(vertex) / uint64(c.cfg.ChunkSize) % uint64(c.cfg.NumCores))
}

// Index implements the index unit: the line number of vertex inside its
// home slice.
func (c *Controller) Index(vertex uint32) int {
	chunk := uint64(c.cfg.ChunkSize)
	cores := uint64(c.cfg.NumCores)
	v := uint64(vertex)
	round := v / (chunk * cores)
	return int(round*chunk + v%chunk)
}

// Latency returns the slice access latency.
func (c *Controller) Latency() memsys.Cycles { return c.cfg.LatencyCycles }

// RecordAccess tallies a local or remote slice access.
func (c *Controller) RecordAccess(local bool) {
	if local {
		c.LocalAccesses.Inc()
	} else {
		c.RemoteAccesses.Inc()
	}
}

// Accesses returns the total slice accesses.
func (c *Controller) Accesses() uint64 {
	return c.LocalAccesses.Value() + c.RemoteAccesses.Value()
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
	for _, b := range c.srcBufs {
		b.invalidate()
	}
}

// srcBuffer is a small fully-associative read-only buffer with FIFO
// replacement.
type srcBuffer struct {
	entries  []uint32
	valid    []bool
	next     int
	capacity int
	index    map[uint32]int
}

func newSrcBuffer(entries int) *srcBuffer {
	if entries <= 0 {
		entries = 1
	}
	return &srcBuffer{
		entries:  make([]uint32, entries),
		valid:    make([]bool, entries),
		capacity: entries,
		index:    make(map[uint32]int, entries),
	}
}

func (b *srcBuffer) lookupInsert(vertex uint32) bool {
	if i, ok := b.index[vertex]; ok && b.valid[i] && b.entries[i] == vertex {
		return true
	}
	// Install, evicting FIFO.
	i := b.next
	b.next = (b.next + 1) % b.capacity
	if b.valid[i] {
		delete(b.index, b.entries[i])
	}
	b.entries[i] = vertex
	b.valid[i] = true
	b.index[vertex] = i
	return false
}

func (b *srcBuffer) invalidate() {
	for i := range b.valid {
		b.valid[i] = false
	}
	b.index = make(map[uint32]int, b.capacity)
	b.next = 0
}
