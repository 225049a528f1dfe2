// Package memsys defines the vocabulary shared by every component of the
// simulated memory hierarchy: simulated addresses, cycle time, access
// descriptors, and the data-structure classification (vtxProp / edgeList /
// nGraphData / active-list) that drives OMEGA's heterogeneous routing.
package memsys

import "fmt"

// Cycles counts simulated processor clock cycles (2 GHz in the paper's
// testbed, Table III).
type Cycles uint64

// Addr is a simulated byte address. The simulated address space is flat;
// the allocator in package core hands out disjoint regions per data
// structure.
type Addr uint64

// The Table III values more than one component package needs; every other
// fixed parameter is a constant in the one package that uses it.
const (
	// LineSize is the cache-line size in bytes.
	LineSize = 64
	// NumCores is the core count: one L1, one L2 bank, one crossbar port
	// and, on OMEGA, one scratchpad slice and one PISC engine per core.
	NumCores = 16
	// SPLat is the scratchpad slice access latency.
	SPLat Cycles = 3
)

// LineAddr returns the line-aligned address containing a.
func LineAddr(a Addr) Addr { return a &^ (LineSize - 1) }

// Kind classifies the graph data structure behind an access (paper §II,
// "Graph data structures").
type Kind uint8

const (
	// KindVtxProp is vertex-property data: randomly accessed, the target
	// of OMEGA's scratchpads.
	KindVtxProp Kind = iota
	// KindEdgeList is CSR adjacency data: overwhelmingly sequential.
	KindEdgeList
	// KindNGraphData is everything else (loop counters, frontier arrays,
	// temporaries): small, mostly sequential.
	KindNGraphData
	// KindActiveList is the frontier bookkeeping (dense bit vector or
	// sparse ID list).
	KindActiveList
)

// String names the kind for stats output.
func (k Kind) String() string {
	switch k {
	case KindVtxProp:
		return "vtxProp"
	case KindEdgeList:
		return "edgeList"
	case KindNGraphData:
		return "nGraphData"
	case KindActiveList:
		return "activeList"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Op is the operation an access performs.
type Op uint8

const (
	// OpRead is a plain load.
	OpRead Op = iota
	// OpWrite is a plain store.
	OpWrite
	// OpAtomic is an atomic read-modify-write (CAS / fetch-add / min...).
	OpAtomic
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpAtomic:
		return "atomic"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// NumKinds is the number of Kind values, for dense per-kind arrays.
const NumKinds = 4

// Level identifies the hierarchy component that satisfied an access. It is
// a dense enum so the per-access bookkeeping (machine level profiles, trace
// aggregation) can index fixed-size arrays instead of hashing strings — the
// steady-state access path must not allocate.
type Level uint8

const (
	// LevelL1 is a private L1 data cache hit.
	LevelL1 Level = iota
	// LevelL2Plus covers everything the cache path resolves beyond the L1:
	// L2 bank hits, cache-to-cache transfers, and DRAM fills.
	LevelL2Plus
	// LevelSPLocal is the issuing core's own scratchpad slice.
	LevelSPLocal
	// LevelSPRemote is a remote scratchpad slice across the NoC.
	LevelSPRemote
	// LevelSPAtomic is a core-executed atomic on a scratchpad word (the
	// no-PISC ablation).
	LevelSPAtomic
	// LevelSPDegraded is a parity-degraded vertex line falling back to the
	// cache hierarchy.
	LevelSPDegraded
	// LevelSrcBuf is the per-core source vertex buffer.
	LevelSrcBuf
	// LevelPISC is an atomic offloaded to a processing-in-scratchpad engine.
	LevelPISC
	// NumLevels is the number of Level values, for dense per-level arrays.
	NumLevels
)

// levelNames holds the stable display names; they are part of the tool
// output format (trace summaries, level profiles) and must not change.
var levelNames = [NumLevels]string{
	"L1", "L2+", "SP-local", "SP-remote", "SP-atomic", "SP-degraded",
	"SrcBuf", "PISC",
}

// String names the level for stats output.
func (l Level) String() string {
	if l < NumLevels {
		return levelNames[l]
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// Access describes one logical memory access emitted by the framework.
type Access struct {
	// Core is the issuing core ID in [0, NumCores).
	Core int
	// Addr is the simulated byte address.
	Addr Addr
	// Size is the access size in bytes (1..8 for word accesses).
	Size uint8
	// Op is read/write/atomic.
	Op Op
	// Kind is the data-structure classification.
	Kind Kind
	// Vertex is the vertex ID for vtxProp/active-list accesses (used by
	// the scratchpad partition unit); ignored otherwise.
	Vertex uint32
	// SrcRead marks a read of a *source* vertex's property during edge
	// processing — the access class served by OMEGA's source vertex
	// buffer (paper §V.C).
	SrcRead bool
}

// Result reports the outcome of simulating one access.
type Result struct {
	// Latency is the time from issue to completion.
	Latency Cycles
	// Blocking forces the issuing core to stall for the full latency
	// (atomics on the baseline).
	Blocking bool
	// Offloaded reports that the operation was handed to a PISC engine
	// and the core does not wait for completion.
	Offloaded bool
	// Level identifies the component that satisfied the access.
	Level Level
}

// Hierarchy is a memory subsystem that can satisfy accesses. Both the
// baseline CMP hierarchy and the OMEGA heterogeneous hierarchy implement
// it. Implementations are not safe for concurrent use; the simulation
// driver serializes calls (it is itself single-threaded event scheduling).
type Hierarchy interface {
	// Access simulates one access issued at time now and returns its
	// timing outcome.
	Access(now Cycles, a Access) Result
	// BeginIteration signals an algorithm-level iteration boundary
	// (OMEGA invalidates source-vertex buffers here, paper §V.C).
	BeginIteration()
}
