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
//     mode stays enabled under fault injection. Ctx.Read tests it inline,
//     before any call: each registered stream carries the element range
//     of its region that starts in its line (Region.lineRange), and the
//     window mirrors the current stream's range (memoR, memoLo, memoSpan).
//   - probe fold: the read targets another line of the window's stream
//     registry, still resident in the L1: the registered way still holds
//     the tag key recorded at registration (Cache.TagKey). The per-access
//     path would be a full cache-path probe hitting L1 and re-arming the
//     memo. cachePath.Access draws a DirFlip decision per access when an
//     injector is attached, so probe folds require a fault-free machine —
//     the injector's per-access PRNG streams (and with them every fault
//     campaign and its recovery re-executions) stay undisturbed.
//
// A fold only counts the window's reads (n). The latest deferred read is
// always against the current stream, so a stream's count and last
// sequence number are credited when the current stream changes (a probe
// fold) and at the flush; memo hits are n less the probe folds.
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
// the L1 (way, holding tag key), the region that registered it (whose
// kind the reads count as) with that region's elements starting in it,
// and this window's deferred activity against it.
type foldStream struct {
	line memsys.Addr
	way  int
	key  uint64
	// r's elements [lo, lo+span) are those whose start address lies in
	// line (Region.lineRange).
	r    *Region
	lo   int
	span uint
	// count is the number of reads folded against this line in the open
	// window; lastSeq is the window sequence number of the most recent
	// one, from which the flush back-computes the way's final LRU stamp.
	// Both are credited only when the stream stops being current and at
	// the flush (credit).
	count   uint64
	lastSeq uint64
}

// runFold is a Machine's fold state: at most one window is open at a
// time, owned by one core, and it never spans a scheduling item, region
// boundary, or non-foldable access.
type runFold struct {
	active bool
	core   int
	// memoR, memoLo and memoSpan mirror the current stream's region and
	// element range for Ctx.Read's inline memo-fold check. memoSpan is 0
	// whenever no window is open, so the check then always fails.
	memoR    *Region
	memoLo   int
	memoSpan uint
	// cur indexes the stream whose line the window's virtual same-line
	// memo holds (the real L1 memo is re-synchronized at flush when probe
	// folds moved it); reads curFrom+1..n were folded against it.
	cur     int
	curFrom uint64
	// n is the total deferred read count (the window sequence number of
	// the latest fold); probeHits counts the probe folds among them.
	n         uint64
	probeHits uint64
	// rearm records that at least one probe fold occurred, so the flush
	// must re-arm the real L1 same-line memo to the current stream (the
	// state the last replayed probe would have left).
	rearm    bool
	nstreams int
	next     int // round-robin replacement cursor once the registry is full
	streams  [maxFoldStreams]foldStream
}

// credit books the reads folded against the current stream since it
// became current.
func (f *runFold) credit() {
	if k := f.n - f.curFrom; k > 0 {
		s := &f.streams[f.cur]
		s.count += k
		s.lastSeq = f.n
	}
}

// setCur makes stream si current from the next fold on.
func (f *runFold) setCur(si int) {
	f.cur = si
	f.curFrom = f.n
	s := &f.streams[si]
	f.memoR, f.memoLo, f.memoSpan = s.r, s.lo, s.span
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

// openFold opens a fold window on core for line — holding the start of an
// element of r — just observed armed in the L1 same-line memo at way.
// Called only with the window inactive (every path here flushed first), so
// overwriting a registry slot can never lose deferred counts.
func (m *Machine) openFold(core int, r *Region, line memsys.Addr, way int) {
	f := &m.fold
	f.active = true
	f.core = core
	// The common reopen, after a non-foldable access briefly interrupted
	// a scan, finds the stream the last window left current. Otherwise
	// scan the registry, whose lines are unique, then take a free or
	// round-robin slot.
	si := f.cur
	if f.streams[si].line != line {
		si = -1
		for k := 0; k < f.nstreams; k++ {
			if f.streams[k].line == line {
				si = k
				break
			}
		}
		if si < 0 {
			if si = f.nstreams; si < maxFoldStreams {
				f.nstreams++
			} else {
				si = f.next
				if f.next++; f.next == maxFoldStreams {
					f.next = 0
				}
			}
			f.streams[si] = foldStream{line: line}
		}
	}
	s := &f.streams[si]
	if s.r != r {
		s.r = r
		s.lo, s.span = r.lineRange(line)
	}
	s.way = way
	s.key = m.path.l1[core].TagKey(way)
	f.setCur(si)
}

// tryFold attempts a probe fold of an eligible read (plain, non-src,
// streaming kind, window owner's core — the caller checked) instead of
// simulating it. It returns false without side effects when the read is
// not provably a replayable L1 hit; the caller then flushes and takes the
// per-access path, which re-registers the line.
//
// Memo folds never reach here: every plain read comes through Ctx.Read
// (Atomic's AtomicsAsPlain load included), whose inline range test takes
// every read of the current stream's line by the window's core — regions
// are page-aligned, so only the registering region has elements starting
// in that line, and lineRange holds exactly those. The current stream is
// skipped below all the same: a read of its line that missed the inline
// test falls back to the per-access path rather than count as a probe.
func (m *Machine) tryFold(r *Region, i int) bool {
	if !m.probeFold {
		return false
	}
	f := &m.fold
	line := memsys.LineAddr(r.Addr(i))
	for si := 0; si < f.nstreams; si++ {
		s := &f.streams[si]
		if s.line != line || si == f.cur {
			continue
		}
		// Probe fold: the per-access path would miss the memo (armed for
		// cur's line), take the full probe, and hit L1 — provable because
		// the registered way still holds the line's tag key and nothing in
		// an open window moves cache contents (folds defer only
		// counters/stamps; every content-changing access flushes first).
		if m.path.l1[f.core].TagKey(s.way) != s.key {
			return false
		}
		f.credit()
		f.setCur(si)
		f.n++
		f.probeHits++
		f.rearm = true
		return true
	}
	return false
}

// flushFold applies the window's deferred accounting and deactivates it.
// The stream registry (lines, ways, keys, regions, ranges) survives for the
// next window; only the deferred counts are consumed. Safe to call any
// time; a no-op when no window is open.
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
	f.memoR, f.memoSpan = nil, 0
	n := f.n
	if n == 0 {
		return
	}
	f.credit()
	l1 := m.path.l1[f.core]
	u1 := l1.FoldReadHits(n)
	for si := 0; si < f.nstreams; si++ {
		s := &f.streams[si]
		if s.count == 0 {
			continue
		}
		l1.SetLastUse(s.way, u1-(n-s.lastSeq))
		m.accessesByKind[s.r.Kind].Add(s.count)
		s.count = 0
		s.lastSeq = 0
	}
	m.cores[f.core].FoldPipelined(n)
	li := levelIndex(memsys.LevelL1, false)
	m.levelCount[li] += n
	m.levelLatency[li] += n // latency 1 per folded hit
	m.lbHits.Add(n - f.probeHits)
	m.lbStores.Add(f.probeHits)
	if f.rearm {
		// Probe folds virtually re-armed the L1 same-line memo;
		// materialize the final arm (the one the last probe would have
		// left). The way still holds the line: nothing that moves cache
		// contents runs inside a window — every such access flushes first.
		cs := &f.streams[f.cur]
		l1.ArmHot(cs.line, cs.way)
	}
	f.n, f.curFrom, f.probeHits, f.rearm = 0, 0, 0, false
}
