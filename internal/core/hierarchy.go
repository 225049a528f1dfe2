package core

import (
	"math/bits"

	"omega/internal/faults"
	"omega/internal/memsys"
	"omega/internal/memsys/cache"
	"omega/internal/memsys/coherence"
	"omega/internal/memsys/dram"
	"omega/internal/memsys/noc"
	"omega/internal/stats"
)

// cachePath is the conventional coherent cache hierarchy: per-core private
// L1D caches, address-interleaved shared L2 banks reached over the
// crossbar, a MESI-lite directory over the L1s, and DRAM behind the L2.
// It serves as the entire memory system of the baseline machine and as
// the non-scratchpad path of the OMEGA machine.
type cachePath struct {
	cfg  Config
	l1   []*cache.Cache
	l2   []*cache.Cache
	dir  *coherence.Directory
	dram *dram.DRAM
	noc  *noc.Crossbar

	// faults, when attached, flips bits in directory probe-table entries;
	// the background scrubber repairs them via the per-entry check byte
	// (nil = no injection, the default).
	faults *faults.Injector

	// LLC pollution state (Config.LLCPollution): synthetic fills that
	// model the instruction/OS traffic of a real machine's LLC.
	pollAccum float64
	pollNext  uint64

	// Prefetches counts next-line prefetches issued (Config.L1Prefetch).
	Prefetches stats.Counter
}

func newCachePath(cfg Config, xbar *noc.Crossbar, mem *dram.DRAM) *cachePath {
	p := &cachePath{
		cfg:  cfg,
		dir:  coherence.New(),
		dram: mem,
		noc:  xbar,
	}
	for c := 0; c < NumCores; c++ {
		p.l1 = append(p.l1, cache.New(cache.Config{SizeBytes: cfg.L1Bytes, Ways: L1Ways, Name: "L1D"}))
		p.l2 = append(p.l2, cache.New(cache.Config{SizeBytes: cfg.L2BytesPerCore, Ways: L2Ways, Name: "L2"}))
	}
	return p
}

// homeBank address-interleaves lines across L2 banks.
func (p *cachePath) homeBank(line memsys.Addr) int {
	return int(uint64(line) / memsys.LineSize % NumCores)
}

// l2Local strips the bank-interleaving bits from a global line address so
// a bank's set index uses the full set space (without this, every line in
// a bank would map to the same few sets).
func (p *cachePath) l2Local(line memsys.Addr) memsys.Addr {
	return memsys.Addr(uint64(line) / memsys.LineSize / NumCores * memsys.LineSize)
}

// l2Global reconstructs the global line address from a bank-local one.
func (p *cachePath) l2Global(local memsys.Addr, bank int) memsys.Addr {
	l := uint64(local) / memsys.LineSize
	return memsys.Addr((l*NumCores + uint64(bank)) * memsys.LineSize)
}

// dropMemos drops every L1's same-line memo (Cache.DropHot) for
// machine-level events the caches cannot see. It touches no counters, so
// it is stats-neutral: the next read on each core just re-probes.
func (p *cachePath) dropMemos() {
	for _, l1 := range p.l1 {
		l1.DropHot()
	}
}

// Access simulates one access through the cache path.
func (p *cachePath) Access(now memsys.Cycles, a memsys.Access) memsys.Result {
	op := a.Op
	write := op != memsys.OpRead
	atomic := op == memsys.OpAtomic
	line := memsys.LineAddr(a.Addr)
	l1 := p.l1[a.Core]

	// Injected directory probe-table entry flip. When a flip lands, the
	// scrubber sweeps the table against the per-entry check bytes and
	// erases mismatching entries (backward-shift aware: coherence.Scrub
	// rechecks slots refilled by the shift); the sweep's latency is
	// charged to this access.
	var scrubLat memsys.Cycles
	if slotSel, bitSel, ok := p.faults.DirFlip(); ok && p.dir.CorruptEntry(slotSel, bitSel) {
		p.faults.NoteDirScrubRepairs(p.dir.Scrub())
		scrubLat = faults.DirScrubCycles
	}

	// Streaming-kind reads seed the L1's same-line memo (the fast path in
	// Machine.fastRead); vtxProp and writes use the plain probe so point
	// accesses do not evict a live stream memo. The line's L1 coordinates
	// are resolved once and reused by the miss-side fill.
	stream := !write && a.Kind != memsys.KindVtxProp
	r1 := l1.Resolve(line)
	var l1Hit bool
	if stream {
		l1Hit = l1.AccessStreamReadAt(r1)
	} else {
		l1Hit = l1.AccessAt(r1, write)
	}

	var lat memsys.Cycles
	level := memsys.LevelL1
	if l1Hit {
		lat = L1Lat
		if write {
			// Upgrade: invalidate other sharers (single directory probe;
			// a no-op when this core already holds the line Modified).
			if out, upgraded := p.dir.Upgrade(line, a.Core); upgraded {
				if out.Invalidated > 0 {
					bank := p.homeBank(line)
					for i := 0; i < out.Invalidated; i++ {
						p.noc.Send(now, a.Core, bank, 0, noc.ClassCtrl)
					}
					if atomic {
						lat += InvalidationCycles
					}
				}
			}
		}
	} else {
		lat = p.miss(now, a.Core, line, write, a.Kind == memsys.KindVtxProp)
		level = memsys.LevelL2Plus
		// Fill L1 and handle its victim. Streaming fills seed the L1's
		// same-line memo so the reads that follow the miss take the fast
		// path. The fill reuses the probe's Ref and the known-absent
		// contract: nothing between the missing probe above and here can
		// have installed the line (the miss path only fills L2 and may
		// *invalidate* L1 lines via back-invalidation).
		p.fillL1(now, a.Core, r1, line, write, stream, false)
		if p.cfg.L1Prefetch &&
			(a.Kind == memsys.KindEdgeList || a.Kind == memsys.KindNGraphData) {
			p.prefetchNext(now, a.Core, line)
		}
	}
	if atomic {
		lat += AtomicOpCycles
	}
	return memsys.Result{Latency: lat + scrubLat, Blocking: atomic, Level: level}
}

// miss brings line toward the requesting core, returning the latency from
// issue to data arrival at the core.
func (p *cachePath) miss(now memsys.Cycles, core int, line memsys.Addr, write, lowLocality bool) memsys.Cycles {
	bank := p.homeBank(line)
	// The bank-local address and its L2 set/way coordinates are resolved
	// once here; every L2 operation below reuses them. A Ref is pure
	// address arithmetic, so content mutations between uses (pollution
	// fills, the DRAM access) do not invalidate it.
	l2 := p.l2[bank]
	rl2 := l2.Resolve(p.l2Local(line))
	// Request header to the home bank.
	lat := p.noc.Send(now, core, bank, 0, noc.ClassCtrl)

	// Directory resolution at the home node.
	var dirtyOwner = -1
	if write {
		out := p.dir.AcquireExclusive(line, core)
		dirtyOwner = out.DirtyOwner
		for i := 0; i < out.Invalidated; i++ {
			p.noc.Send(now+lat, bank, core, 0, noc.ClassCtrl)
		}
	} else {
		out := p.dir.AcquireShared(line, core)
		dirtyOwner = out.DirtyOwner
	}

	if dirtyOwner >= 0 {
		// Cache-to-cache: forward request to owner, owner sends the line
		// to the requester and writes back to the bank. The L2's copy is
		// stale (owner holds M), so the probe counts as a demand miss —
		// the same accounting gem5's Ruby MESI uses — even though the
		// transfer stays on-chip.
		l2.Reads.AddMisses(1)
		// Known fault: this fill can evict a real L2 line, and the victim
		// is dropped — no L1 back-invalidation (breaking inclusion) and no
		// DRAM writeback of a dirty victim, though Writebacks counts it.
		// Routing it through evictFromL2 changes every golden (DESIGN.md
		// §13).
		l2.FillAt(rl2, true)
		fwd := p.noc.Send(now+lat, bank, dirtyOwner, 0, noc.ClassCtrl)
		xfer := p.noc.Send(now+lat+fwd, dirtyOwner, core, memsys.LineSize, noc.ClassLine)
		// The owner's dirty data also refreshes the L2 bank.
		p.noc.Send(now+lat+fwd, dirtyOwner, bank, memsys.LineSize, noc.ClassLine)
		l2.FillAt(rl2, true)
		return lat + fwd + xfer + L1Lat
	}

	p.pollute(bank)
	if l2.AccessAt(rl2, false) {
		// L2 hit: data line back to the requester.
		resp := p.noc.Send(now+lat+L2Lat, bank, core, memsys.LineSize, noc.ClassLine)
		return lat + L2Lat + resp
	}
	// L2 miss: DRAM access, fill L2 (inclusive), then respond. The fill
	// may take the known-absent path: the probe just missed and only the
	// DRAM access (no cache mutation) ran in between.
	dramLat := p.dram.AccessHint(now+lat+L2Lat, line, lowLocality)
	if victim, evicted := l2.FillMissAt(rl2, false); evicted {
		p.evictFromL2(now, bank, victim)
	}
	resp := p.noc.Send(now+lat+L2Lat+dramLat, bank, core, memsys.LineSize, noc.ClassLine)
	return lat + L2Lat + dramLat + resp
}

// prefetchNext fetches the line after a sequential-class miss into the
// core's L1 in the background: the core is not charged latency, but the
// L2/DRAM/NoC effects (fills, traffic, bandwidth) are fully modeled.
func (p *cachePath) prefetchNext(now memsys.Cycles, core int, line memsys.Addr) {
	next := line + memsys.LineSize
	rn := p.l1[core].Resolve(next)
	if p.l1[core].LookupAt(rn) {
		return
	}
	p.Prefetches.Inc()
	bank := p.homeBank(next)
	p.noc.Send(now, core, bank, 0, noc.ClassCtrl)
	l2 := p.l2[bank]
	rl2 := l2.Resolve(p.l2Local(next))
	if !l2.AccessAt(rl2, false) {
		p.dram.AccessHint(now, next, false)
		if victim, evicted := l2.FillMissAt(rl2, false); evicted {
			p.evictFromL2(now, bank, victim)
		}
	}
	p.noc.Send(now, bank, core, memsys.LineSize, noc.ClassLine)
	// Prefetched lines do not seed the memo: the demand stream's memo
	// should keep pointing at the line the core is actually reading. The
	// L1 fill reuses the lookup's Ref; the lookup missed and the only L1
	// mutations since are possible back-invalidations (removals), so the
	// known-absent contract holds.
	p.fillL1(now, core, rn, next, false, false, true)
}

// pollute injects Config.LLCPollution synthetic fills per demand access
// into the accessed bank, evicting real lines the way a shared LLC's
// instruction/OS/TLB traffic does. The synthetic lines live in a reserved
// high address range, cost no simulated time, and their victims are
// dropped silently (the polluting traffic's own behaviour is not under
// study).
func (p *cachePath) pollute(bank int) {
	if p.cfg.LLCPollution <= 0 {
		return
	}
	p.pollAccum += p.cfg.LLCPollution
	for p.pollAccum >= 1 {
		p.pollAccum--
		p.pollNext = p.pollNext*6364136223846793005 + 1442695040888963407
		// Spread across sets within the bank; reserved range above 2^40.
		addr := memsys.Addr(pollutionBase + (p.pollNext%(1<<20))*memsys.LineSize)
		// Known fault: a real victim of this fill is dropped like a
		// synthetic one — no L1 back-invalidation and no DRAM writeback of
		// a dirty line, though Writebacks counts it (DESIGN.md §13).
		p.l2[bank].Fill(p.l2Local(addr), false)
	}
}

// pollutionBase is the bottom of the reserved address range holding the
// synthetic LLC-pollution lines, far above every region allocation. No
// core accesses the range, so a synthetic victim reaching evictFromL2 has
// no directory residency (no L1 is probed) and is never dirty (no DRAM
// write).
const pollutionBase = 1 << 40

// evictFromL2 handles an L2 victim: back-invalidate L1 copies (inclusive
// hierarchy) and write dirty data to DRAM.
func (p *cachePath) evictFromL2(now memsys.Cycles, bank int, victim cache.EvictedLine) {
	global := p.l2Global(victim.Addr, bank)
	dirty := victim.Dirty
	// Back-invalidation probes are restricted to the directory's resident
	// mask — a guaranteed superset of the L1s containing the line (the
	// sharer mask alone would not do: AcquireExclusive clears other cores'
	// sharer bits without removing their now-stale L1 copies, but their
	// resident bits persist until the copy is provably gone). A core
	// outside the mask would probe-miss with zero side effects, so
	// skipping it is unobservable. Bits are visited in ascending core
	// order, preserving the full loop's message order.
	if rem := p.dir.Resident(global); rem != 0 {
		// All L1s share one geometry, so the line's set/way coordinates
		// are resolved once (against core 0's L1) and reused for every
		// probed core. Resolved lazily: most evictions have an empty
		// resident mask.
		rg := p.l1[0].Resolve(global)
		for ; rem != 0; rem &= rem - 1 {
			c := bits.TrailingZeros64(rem)
			if present, l1dirty := p.l1[c].InvalidateAt(rg); present {
				p.noc.Send(now, bank, c, 0, noc.ClassCtrl)
				if l1dirty {
					p.noc.Send(now, c, bank, memsys.LineSize, noc.ClassLine)
					dirty = true
				}
				p.dir.Drop(global, c)
			} else {
				// Stale residency bit (e.g. the L1 was reset): retract it
				// so the entry can be reclaimed.
				p.dir.ClearResident(global, c)
			}
		}
	}
	if dirty {
		p.dram.Write(now, global)
	}
}

// fillL1 installs line into the core's L1 and handles the victim
// (directory drop + dirty writeback to the home bank). stream additionally
// seeds the L1's same-line memo with the filled line; prefetch marks a
// fill no demand access acquired in the directory. r is the line's Ref in
// the core's L1, carried over from the probe that missed; both callers
// guarantee the known-absent contract (the probe missed and only removals
// can have touched the L1 since), so the fill skips the presence re-probe.
func (p *cachePath) fillL1(now memsys.Cycles, core int, r cache.Ref, line memsys.Addr, write, stream, prefetch bool) {
	var victim cache.EvictedLine
	var evicted bool
	if stream {
		victim, evicted = p.l1[core].FillMissStreamAt(r, write)
	} else {
		victim, evicted = p.l1[core].FillMissAt(r, write)
	}
	if prefetch {
		// Only a prefetch fill needs directory bookkeeping here: FillShared
		// acquires Shared when the line is untracked and marks residency.
		// A demand read ran AcquireShared in miss(), which left this core
		// the owner or a sharer with its resident bit set; nothing between
		// the two touches that entry (the L2 victim and pollution lines are
		// other lines), so FillShared would change nothing. A write ran
		// AcquireExclusive, which marks residency too.
		p.dir.FillShared(line, core)
	}
	if !evicted {
		return
	}
	p.dir.Drop(victim.Addr, core)
	if victim.Dirty {
		bank := p.homeBank(victim.Addr)
		p.noc.Send(now, core, bank, memsys.LineSize, noc.ClassLine)
		if v2, ev2 := p.l2[bank].Fill(p.l2Local(victim.Addr), true); ev2 {
			// Victim-of-victim: count the DRAM writeback, do not recurse.
			if v2.Dirty {
				p.dram.Write(now, p.l2Global(v2.Addr, bank))
			}
		}
	}
}
