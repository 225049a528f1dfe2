package core

import (
	"omega/internal/cpu"
	"omega/internal/faults"
	"omega/internal/memsys"
	"omega/internal/memsys/cache"
	"omega/internal/memsys/coherence"
	"omega/internal/memsys/dram"
	"omega/internal/memsys/noc"
	"omega/internal/pisc"
	"omega/internal/scratchpad"
	"omega/internal/stats"
)

// MachineState is an opaque whole-machine checkpoint: every piece of
// mutable simulation state a run touches — core pipelines, caches, the
// coherence directory, DRAM/NoC queues, scratchpad + PISC engines, the
// fault injector's PRNG cursors and event log, the allocator cursor, and
// all machine-level counters. Restoring it rewinds the machine so a re-run
// of the same workload replays bit-identically (including the region
// allocation sequence, so re-created regions land on the same addresses).
// The resilience campaigns use it for checkpointed re-execution recovery.
type MachineState struct {
	cores []cpu.State
	l1    []cache.State
	l2    []cache.State
	dir   coherence.State
	dram  dram.State
	noc   noc.State

	// cachePath scalars.
	pathAtomics    stats.Counter
	pathDRAMWrites stats.Counter
	pollAccum      float64
	pollNext       uint64
	pollution      stats.Counter
	prefetches     stats.Counter

	// OMEGA side (unused on the baseline machine).
	hasOmega    bool
	sp          scratchpad.State
	engines     []pisc.State
	offloads    stats.Counter
	spAtomics   stats.Counter
	remoteReads stats.Counter

	hasFaults bool
	faults    faults.State

	nextAddr       memsys.Addr
	numRegions     int
	accessesByKind [memsys.NumKinds]stats.Counter
	atomicsIssued  stats.Counter
	srcReads       stats.Counter
	iterations     stats.Counter
	lbHits         stats.Counter
	lbStores       stats.Counter
	parRegions     stats.Counter
	seqRegions     stats.Counter
	schedItems     stats.Counter
	vertexProfile  []uint64
	levelCount     [2 * memsys.NumLevels]uint64
	levelLatency   [2 * memsys.NumLevels]uint64
	memoFaults     []memoFault
	pendingALU     uint64
	digests        []uint64
}

// Snapshot captures the complete machine state for a later Restore. It
// must be taken between parallel regions (the scheduling scratch holds no
// live state then); snapshotting mid-region would checkpoint a torn loop.
func (m *Machine) Snapshot() *MachineState {
	if m.sched.busy {
		panic("core: Snapshot inside a parallel region")
	}
	// Settle any fold window first: a checkpoint must capture fully
	// applied state, so MachineState needs no fold fields and a restored
	// machine starts with an empty window.
	m.flushFold()
	s := &MachineState{
		dir:            m.path.dir.Snapshot(),
		dram:           m.mem.Snapshot(),
		noc:            m.xbar.Snapshot(),
		pathAtomics:    m.path.atomics,
		pathDRAMWrites: m.path.dramWrites,
		pollAccum:      m.path.pollAccum,
		pollNext:       m.path.pollNext,
		pollution:      m.path.Pollution,
		prefetches:     m.path.Prefetches,
		nextAddr:       m.nextAddr,
		numRegions:     len(m.regions),
		accessesByKind: m.accessesByKind,
		atomicsIssued:  m.atomicsIssued,
		srcReads:       m.srcReads,
		iterations:     m.iterations,
		lbHits:         m.lbHits,
		lbStores:       m.lbStores,
		parRegions:     m.parRegions,
		seqRegions:     m.seqRegions,
		schedItems:     m.schedItems,
		levelCount:     m.levelCount,
		levelLatency:   m.levelLatency,
		memoFaults:     append([]memoFault(nil), m.memoFaults...),
		pendingALU:     m.pendingALU,
	}
	for _, c := range m.cores {
		s.cores = append(s.cores, c.Snapshot())
	}
	for _, c := range m.path.l1 {
		s.l1 = append(s.l1, c.Snapshot())
	}
	for _, c := range m.path.l2 {
		s.l2 = append(s.l2, c.Snapshot())
	}
	if m.omega != nil {
		s.hasOmega = true
		s.sp = m.omega.ctrl.Snapshot()
		for _, e := range m.omega.engines {
			s.engines = append(s.engines, e.Snapshot())
		}
		s.offloads = m.omega.offloads
		s.spAtomics = m.omega.spAtomics
		s.remoteReads = m.omega.remoteReads
	}
	if m.faults != nil {
		s.hasFaults = true
		s.faults = m.faults.Snapshot()
	}
	if m.vertexProfile != nil {
		s.vertexProfile = append([]uint64(nil), m.vertexProfile...)
	}
	if m.digests != nil {
		s.digests = append([]uint64(nil), m.digests...)
	}
	return s
}

// Restore rewinds the machine to a Snapshot taken from the same machine
// (same configuration, same component shapes). Regions allocated after the
// snapshot are released: the allocator cursor rewinds with the state, so
// the next allocations reproduce the snapshot-era addresses exactly.
func (m *Machine) Restore(s *MachineState) {
	if m.sched.busy {
		panic("core: Restore inside a parallel region")
	}
	if len(s.cores) != len(m.cores) || s.hasOmega != (m.omega != nil) {
		panic("core: Restore from a different machine shape")
	}
	// Discard, don't flush: deferred reads belong to the timeline being
	// abandoned, and the snapshot was taken with an empty window.
	m.resetFold()
	for i, c := range m.cores {
		c.Restore(s.cores[i])
	}
	for i, c := range m.path.l1 {
		c.Restore(s.l1[i])
	}
	for i, c := range m.path.l2 {
		c.Restore(s.l2[i])
	}
	m.path.dir.Restore(s.dir)
	m.mem.Restore(s.dram)
	m.xbar.Restore(s.noc)
	m.path.atomics = s.pathAtomics
	m.path.dramWrites = s.pathDRAMWrites
	m.path.pollAccum = s.pollAccum
	m.path.pollNext = s.pollNext
	m.path.Pollution = s.pollution
	m.path.Prefetches = s.prefetches
	if m.omega != nil {
		m.omega.ctrl.Restore(s.sp)
		for i, e := range m.omega.engines {
			e.Restore(s.engines[i])
		}
		m.omega.offloads = s.offloads
		m.omega.spAtomics = s.spAtomics
		m.omega.remoteReads = s.remoteReads
	}
	if m.faults != nil && s.hasFaults {
		m.faults.Restore(s.faults)
	}
	m.nextAddr = s.nextAddr
	m.regions = m.regions[:s.numRegions]
	m.accessesByKind = s.accessesByKind
	m.atomicsIssued = s.atomicsIssued
	m.srcReads = s.srcReads
	m.iterations = s.iterations
	m.lbHits = s.lbHits
	m.lbStores = s.lbStores
	m.parRegions = s.parRegions
	m.seqRegions = s.seqRegions
	m.schedItems = s.schedItems
	m.levelCount = s.levelCount
	m.levelLatency = s.levelLatency
	copy(m.memoFaults, s.memoFaults)
	m.pendingALU = s.pendingALU
	if m.vertexProfile != nil && s.vertexProfile != nil && len(m.vertexProfile) == len(s.vertexProfile) {
		copy(m.vertexProfile, s.vertexProfile)
	} else if s.vertexProfile != nil {
		m.vertexProfile = append([]uint64(nil), s.vertexProfile...)
	}
	m.digests = append(m.digests[:0], s.digests...)
}

// ReseedFaults re-keys the fault injector's PRNG streams with a salt
// (no-op when injection is disabled). Recovery re-executions use distinct
// salts so a retry does not deterministically replay the exact fault that
// killed the previous attempt.
func (m *Machine) ReseedFaults(salt uint64) {
	if m.faults != nil {
		m.faults.Reseed(salt)
	}
}

// EnableIterationDigests starts recording a StateDigest at every
// BeginIteration (clearing any previous trail). The trail costs one digest
// computation per iteration and touches no simulation state.
func (m *Machine) EnableIterationDigests() {
	m.digestsOn = true
	m.digests = m.digests[:0]
}

// DigestTrail returns the recorded per-iteration digests (index i is the
// digest at the start of iteration i+1). Comparing a faulty run's trail
// against a clean run's locates the first diverging iteration.
func (m *Machine) DigestTrail() []uint64 {
	return append([]uint64(nil), m.digests...)
}

// StateDigest folds the machine's timing-visible state into one FNV-1a
// hash: core clocks and instruction counts, cache generations and probe
// counters, directory occupancy, DRAM/NoC totals, and the machine-level
// access counters. Two runs with equal digests at an iteration boundary
// have (with overwhelming probability) identical simulated histories up to
// that point; a mismatch pins the first corrupted iteration.
func (m *Machine) StateDigest() uint64 {
	m.flushFold()
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for _, c := range m.cores {
		mix(uint64(c.Clock()))
		mix(c.Instructions())
	}
	for _, c := range m.path.l1 {
		mix(c.Gen())
		mix(c.Reads.Hits)
		mix(c.Reads.Total)
	}
	mix(uint64(m.path.dir.Lines()))
	mix(m.mem.Accesses.Value())
	mix(m.mem.BytesMoved.Value())
	mix(m.xbar.TotalBytes())
	mix(m.atomicsIssued.Value())
	mix(m.iterations.Value())
	return h
}
