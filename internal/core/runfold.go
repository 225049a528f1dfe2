package core

import (
	"omega/internal/memsys"
)

// This file implements the batched access stream of DESIGN.md §11: runs of
// same-line streaming reads — the dominant traffic of graph analytics
// (PAPER.md §II) — are folded into deferred per-line bulk accounting
// instead of paying the full per-access dispatch for every edge word.
//
// The contract is bit-identity with the per-access path. A fold is only
// ever taken for a read whose per-access simulation would be a pure L1
// hit with exactly these side effects:
//
//   - cache:   use-clock tick, LRU stamp of the hit way, read-hit count
//   - core:    one retired instruction, one issue cycle, one retiring
//              cycle (Mem's pipelined early return at the L1 hit latency)
//   - machine: accesses-by-kind count, level profile (L1, latency 1),
//              memo hit or store count (linebuf/hits, linebuf/stores)
//
// All of these are order-independent sums and stamps, so they can be
// deferred: a fold window accumulates counts while the framework's loop
// runs, and flushFold applies them in O(streams) arithmetic before any
// simulated event that could observe or perturb the deferred state (a
// non-foldable access, an item/region boundary, a stats read). Ctx.Exec
// commutes with the deferred reads — it only adds to the same
// clock/instruction sums — so edge loops interleaving Exec with reads
// (every ligra/graphmat scan) fold without flushing.
//
// Two fold modes exist, mirroring the two per-access L1 hit paths:
//
//   - memo fold: the read targets the line of the window's current
//     (virtual) L1 same-line memo. The per-access path would take
//     Machine.fastRead's memo hit — which draws no fault PRNG — so this
//     mode stays enabled under fault injection.
//   - probe fold: the read targets another line of the window's stream
//     registry, still resident in the L1 (validated via Cache.PresentAt).
//     The per-access path would be a full cache-path probe hitting L1 and
//     re-arming the memo. cachePath.Access draws a DirFlip decision per
//     access when an injector is attached, so probe folds require a
//     fault-free machine — the injector's per-access PRNG streams (and
//     with them every fault campaign and its recovery re-executions)
//     stay undisturbed.
//
// The stream registry persists across flushes so alternating scans (edge
// list + weights, in-edges + frontier bytes) re-fold immediately; every
// entry is re-validated against live cache state at each use, so stale
// entries cost a fallback probe, never correctness.

// maxFoldStreams bounds the per-window stream registry. Hot loops
// interleave at most three streaming arrays (edges + weights + active
// bytes); the fourth slot absorbs offset reads without evicting a live
// stream.
const maxFoldStreams = 4

// foldStream is one registered streaming line: where it was last seen in
// the L1 (way), what it counts as (kind), and this window's deferred
// activity against it.
type foldStream struct {
	line memsys.Addr
	way  int
	kind memsys.Kind
	// count is the number of reads folded against this line in the open
	// window; lastSeq is the window sequence number of the most recent
	// one, from which the flush back-computes the way's final LRU stamp.
	count   uint64
	lastSeq uint64
}

// runFold is a Machine's fold state: at most one window is open at a
// time, owned by one core, and it never spans a scheduling item, region
// boundary, or non-foldable access.
type runFold struct {
	active bool
	core   int
	// cur indexes the stream whose line the window's virtual same-line
	// memo holds (the real L1 memo is re-synchronized at flush when probe
	// folds moved it).
	cur int
	// n is the total deferred read count; memoHits/probeHits split it by
	// replayed path for the lbHits/lbStores counters.
	n         uint64
	memoHits  uint64
	probeHits uint64
	// rearm records that at least one probe fold occurred, so the flush
	// must re-arm the real L1 same-line memo to the current stream (the
	// state the last replayed probe would have left).
	rearm    bool
	nstreams int
	next     int // round-robin replacement cursor once the registry is full
	streams  [maxFoldStreams]foldStream
}

// recomputeFold derives the fold enables from configuration and attached
// machinery. Folding requires the same-line fast path (the memo it
// virtualizes) and no per-access sink (an AccessSink must observe the
// expanded stream with true per-access results, so batching disables
// itself and the trace TSV bytes are trivially unchanged). Attaching an
// AccessSink is therefore also how tests reach the per-access reference
// path. Probe folds additionally require a fault-free machine: the
// cache-path probe they replay draws injector PRNG per access.
func (m *Machine) recomputeFold() {
	m.foldEnabled = !m.cfg.DisableLineBuffer && m.accSink == nil
	m.probeFold = m.foldEnabled && m.faults == nil
}

// openFold opens a fold window on core for line, just observed armed in
// the L1 same-line memo with its way known. Called only with the window
// inactive (every path here flushed first), so overwriting a registry
// slot can never lose deferred counts.
func (m *Machine) openFold(core int, line memsys.Addr, way int, kind memsys.Kind) {
	f := &m.fold
	f.active = true
	f.core = core
	if cs := &f.streams[f.cur]; cs.line == line {
		// Fast path: reopening on the stream the last window left current
		// (the common case when a non-foldable access briefly interrupts a
		// scan). Lines are unique in the registry, so this is the same slot
		// the scan below would find.
		cs.way = way
		cs.kind = kind
		return
	}
	for si := 0; si < f.nstreams; si++ {
		if f.streams[si].line == line {
			f.streams[si].way = way
			f.streams[si].kind = kind
			f.cur = si
			return
		}
	}
	si := f.nstreams
	if si < maxFoldStreams {
		f.nstreams++
	} else {
		si = f.next
		if f.next++; f.next == maxFoldStreams {
			f.next = 0
		}
	}
	f.streams[si] = foldStream{line: line, way: way, kind: kind}
	f.cur = si
}

// tryFold attempts to defer an eligible read (plain, non-src, streaming
// kind, window owner's core — the caller checked) instead of simulating
// it. It returns false without side effects when the read is not provably
// a replayable L1 hit; the caller then flushes and takes the per-access
// path, which re-registers the line.
func (m *Machine) tryFold(r *Region, i int) bool {
	f := &m.fold
	line := memsys.LineAddr(r.Addr(i))
	if cs := &f.streams[f.cur]; line == cs.line {
		// Memo fold: the per-access path would hit the (virtual) line
		// buffer — lookup valid, latency 1, level L1 — and replay the
		// same-line cache hit.
		f.n++
		cs.count++
		cs.lastSeq = f.n
		f.memoHits++
		return true
	}
	if !m.probeFold {
		return false
	}
	for si := 0; si < f.nstreams; si++ {
		s := &f.streams[si]
		if s.line != line {
			continue
		}
		// Probe fold: the per-access path would miss the memo (armed for
		// cur's line), take the full probe, and hit L1 — provable because
		// the registered way still holds the line and nothing in an open
		// window moves cache contents (folds defer only counters/stamps;
		// every content-changing access flushes first).
		if !m.path.l1[f.core].PresentAt(s.way, line) {
			return false
		}
		f.n++
		s.count++
		s.lastSeq = f.n
		f.probeHits++
		f.rearm = true
		f.cur = si
		return true
	}
	return false
}

// flushFold applies the window's deferred accounting and deactivates it.
// The stream registry (lines, ways, kinds) survives for the next window;
// only the deferred counts are consumed. Safe to call any time; a no-op
// when no window is open.
//
// Replay math: with n deferred reads and the pre-flush use clock U0, the
// k-th fold observed virtual use clock U0+k, so after advancing the clock
// by n (FoldReadHits, returning U1 = U0+n) each touched way's final LRU
// stamp is U1-(n-lastSeq). Every deferred read was an L1 hit at latency
// 1 (pipelined), so the core side is n FoldPipelined replays and the
// level profile gains n counts and n cycles under non-atomic L1.
func (m *Machine) flushFold() {
	f := &m.fold
	if !f.active {
		return
	}
	f.active = false
	n := f.n
	if n == 0 {
		return
	}
	l1 := m.path.l1[f.core]
	u1 := l1.FoldReadHits(n)
	for si := 0; si < f.nstreams; si++ {
		s := &f.streams[si]
		if s.count == 0 {
			continue
		}
		l1.SetLastUse(s.way, u1-(n-s.lastSeq))
		m.accessesByKind[s.kind].Add(s.count)
		s.count = 0
		s.lastSeq = 0
	}
	m.cores[f.core].FoldPipelined(n)
	li := levelIndex(memsys.LevelL1, false)
	m.levelCount[li] += n
	m.levelLatency[li] += n // latency 1 per folded hit
	m.lbHits.Add(f.memoHits)
	m.lbStores.Add(f.probeHits)
	if f.rearm {
		// Probe folds virtually re-armed the L1 same-line memo;
		// materialize the final arm (the one the last probe would have
		// left). The way still holds the line: nothing that moves cache
		// contents runs inside a window — every such access flushes first.
		cs := &f.streams[f.cur]
		l1.ArmHot(cs.line, cs.way)
	}
	f.n, f.memoHits, f.probeHits, f.rearm = 0, 0, 0, false
}
