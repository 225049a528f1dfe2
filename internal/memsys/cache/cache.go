// Package cache models a set-associative, write-back, write-allocate cache
// with true LRU replacement. Tag state is tracked exactly (every line has a
// real tag entry), so hit rates reported by the simulator are measured, not
// estimated.
package cache

import (
	"fmt"
	"math/bits"

	"omega/internal/memsys"
	"omega/internal/stats"
)

// Config sizes a cache.
type Config struct {
	// SizeBytes is total capacity; must be a multiple of LineSize*Ways.
	SizeBytes int
	// Ways is the associativity (1 = direct mapped).
	Ways int
	// Name labels the cache in stats ("L1D-3", "L2-0", ...).
	Name string
}

// setMeta packs one set's per-way bit state into a single 24-byte record,
// so a fill reads one struct where the old layout touched a pin word and a
// flag byte array in separate allocations.
type setMeta struct {
	// pin has bit w set iff way w holds a valid pinned line (the §IX
	// "locked cache lines" alternative to scratchpads — pinned lines are
	// excluded from replacement).
	pin uint64
	// dirty has bit w set iff way w holds a modified line.
	dirty uint64
	// free has bit w set iff way w is invalid (holds no line). Fills into
	// a set with free ways install at the lowest free bit — exactly the
	// first-invalid-way choice of a linear scan — without scanning at
	// all, which covers every warmup fill and every fill after an
	// invalidation.
	free uint64
}

// Cache is one cache instance. Not safe for concurrent use.
//
// Line state lives in one struct-of-arrays slab: per set, the tag words of
// all ways followed by the lastUse words of all ways, contiguously. An
// 8-way set's entire replacement state is 128 adjacent bytes (two hardware
// lines), so the probe loop and the victim scan — the simulator's hottest
// loops — each run over one bounds-check-free contiguous row, and a probe
// followed by a victim scan touches memory once. Per-way flag bits
// (dirty/pinned/free) are packed into one setMeta word-triple per set.
//
// A way index (as returned by HotWay and accepted by TagKey/SetLastUse)
// is the slab index of the way's tag cell; the way's lastUse cell is at
// index+Ways.
type Cache struct {
	ways     int
	numSets  uint64
	useClock uint64
	// setShift/setMask strength-reduce locate's divisions to shift/mask
	// when numSets is a power of two (setShift is -1 otherwise). Scaled
	// geometries are rounded to arbitrary multiples of a set, so both
	// paths stay live.
	setShift int
	setMask  uint64

	// slab[set*2*Ways : set*2*Ways+Ways] holds the set's tag keys (tag+1
	// for a valid way, 0 for an invalid one, so a probe is a single
	// compare per way — an invalid way can never match a key, which is
	// always >= 1); the following Ways words hold the LRU stamps.
	slab []uint64
	meta []setMeta

	// hotLine/hotIdx memoize the line of the most recent streaming read
	// hit or fill so a run of reads to the same 64 B line skips the set
	// probe (SameLineReadHit); hotIdx is -1 when no memo is armed. The
	// memo dies whenever the memoized line's identity could have changed
	// — an eviction or invalidation of that line, or a DropHot.
	hotLine memsys.Addr
	hotIdx  int

	// Stats
	Reads      stats.Ratio // read hits/total
	Writes     stats.Ratio // write hits/total
	Evictions  stats.Counter
	Writebacks stats.Counter
}

// New builds a cache. It panics on nonsensical geometry, since
// configurations are static experiment inputs.
func New(cfg Config) *Cache {
	if cfg.Ways <= 0 || cfg.Ways > 64 {
		panic(fmt.Sprintf("cache %s: ways must be in 1..64", cfg.Name))
	}
	setBytes := memsys.LineSize * cfg.Ways
	if cfg.SizeBytes <= 0 || cfg.SizeBytes%setBytes != 0 {
		panic(fmt.Sprintf("cache %s: size %d not a multiple of %d",
			cfg.Name, cfg.SizeBytes, setBytes))
	}
	numSets := cfg.SizeBytes / setBytes
	c := &Cache{
		ways:     cfg.Ways,
		numSets:  uint64(numSets),
		slab:     make([]uint64, numSets*2*cfg.Ways),
		meta:     make([]setMeta, numSets),
		setShift: -1,
		hotIdx:   -1,
	}
	allFree := c.waysMask()
	for i := range c.meta {
		c.meta[i].free = allFree
	}
	if numSets&(numSets-1) == 0 {
		c.setShift = bits.TrailingZeros64(uint64(numSets))
		c.setMask = uint64(numSets) - 1
	}
	return c
}

// waysMask returns the bitmask with one bit per way.
func (c *Cache) waysMask() uint64 { return ^uint64(0) >> uint(64-c.ways) }

// Ref is a resolved line coordinate in one cache: set index, the set's
// tag-row base in the slab, and the probe key. Resolving once and reusing
// the Ref lets a caller chain probe → fill → invalidate steps on the same
// line without re-deriving the set arithmetic per step. A Ref stays valid
// across any content mutation (it encodes address geometry, not state)
// but is specific to one cache geometry.
type Ref struct {
	la   memsys.Addr
	set  uint64
	base int
	key  uint64
}

// Resolve maps an address to its Ref.
func (c *Cache) Resolve(a memsys.Addr) Ref {
	la := uint64(memsys.LineAddr(a)) / memsys.LineSize
	if c.setShift >= 0 {
		set := la & c.setMask
		return Ref{
			la:   memsys.Addr(la * memsys.LineSize),
			set:  set,
			base: int(set) * 2 * c.ways,
			key:  (la >> uint(c.setShift)) + 1,
		}
	}
	set := la % c.numSets
	return Ref{
		la:   memsys.Addr(la * memsys.LineSize),
		set:  set,
		base: int(set) * 2 * c.ways,
		key:  la/c.numSets + 1,
	}
}

// findIdx probes one set for key and returns the matching way's tag-cell
// slab index, or -1. It is the single probe loop behind LookupAt,
// AccessAt, FillAt, InvalidateAt and Pin.
func (c *Cache) findIdx(base int, key uint64) int {
	for i, t := range c.slab[base : base+c.ways] {
		if t == key {
			return base + i
		}
	}
	return -1
}

// LookupAt probes the cache without modifying replacement or contents,
// and reports whether r's line is present.
func (c *Cache) LookupAt(r Ref) bool { return c.findIdx(r.base, r.key) >= 0 }

// dropHot invalidates the same-line memo.
func (c *Cache) dropHot() { c.hotIdx = -1 }

// DropHot force-invalidates the same-line memo. It exists for events
// outside the cache's own view — iteration boundaries, graph
// configuration, scratchpad fault degrades — after which the next
// same-line read must take the full probe.
func (c *Cache) DropHot() { c.dropHot() }

// SameLineReadHit is the same-line fast path: if addr falls in the line of
// the most recent read hit and that line is provably untouched since (the
// memo survives only until any eviction or invalidation of it), the read
// is recorded as a hit — replaying exactly the accounting the full probe
// would have done (use-clock tick, LRU touch, read-hit counter) — and true
// is returned. Otherwise nothing is recorded and the caller must take the
// full probe.
func (c *Cache) SameLineReadHit(a memsys.Addr) bool {
	if c.hotIdx < 0 || memsys.LineAddr(a) != c.hotLine {
		return false
	}
	c.useClock++
	c.slab[c.hotIdx+c.ways] = c.useClock
	c.Reads.Observe(true)
	return true
}

// HotWay returns the way index of the same-line memo when it is armed for
// the line containing a, and -1 otherwise. Callers batching same-line
// reads use it to learn which way a SameLineReadHit would stamp, so the
// stamps can be applied in bulk later (FoldReadHits/SetLastUse), and read
// the way's tag key (TagKey) to re-validate the way on later use.
func (c *Cache) HotWay(a memsys.Addr) int {
	if c.hotIdx >= 0 && memsys.LineAddr(a) == c.hotLine {
		return c.hotIdx
	}
	return -1
}

// TagKey returns the tag key held by way index idx: 0 for an invalid way,
// else a value unique to the line within its set. It is the validation
// step of the run-fold batching path: a caller that recorded a way's key
// while the way held a line (from HotWay) knows the way — or the same way
// index in another cache of identical geometry — still holds that line
// exactly when TagKey returns the recorded key, because the way lies in
// the line's set and a set's keys are unique to it. Any eviction or
// invalidation since fails the compare, and the caller falls back to a
// full probe.
func (c *Cache) TagKey(idx int) uint64 { return c.slab[idx] }

// FoldReadHits applies the accounting of n same-line read hits in one
// step — n use-clock ticks and n read hits, exactly what n calls of
// SameLineReadHit (or hitting AccessStreamReadAt probes) would record — and
// returns the use clock after the fold, from which the caller back-computes
// the LRU stamps each folded hit would have left (SetLastUse).
func (c *Cache) FoldReadHits(n uint64) uint64 {
	c.useClock += n
	c.Reads.AddHits(n)
	return c.useClock
}

// SetLastUse stamps the LRU clock of way idx, completing a fold: the
// stamp must be the use-clock value the last replayed hit of that way
// would have observed.
func (c *Cache) SetLastUse(idx int, use uint64) { c.slab[idx+c.ways] = use }

// ArmHot re-seeds the same-line memo with a (line, way) pair the caller
// has validated via TagKey — the state a hitting AccessStreamReadAt of
// that line would have left. It touches no counters.
func (c *Cache) ArmHot(a memsys.Addr, idx int) {
	c.hotLine = memsys.LineAddr(a)
	c.hotIdx = idx
}

// EvictedLine describes a victim produced by a fill.
type EvictedLine struct {
	Addr  memsys.Addr
	Dirty bool
}

// AccessAt performs a read or write of r's line. On a hit, LRU is updated
// and the line is dirtied for writes. On a miss, the line is *not* filled
// — callers first consult the next level, then fill. The hit result lets
// the hierarchy charge the correct latency chain.
func (c *Cache) AccessAt(r Ref, write bool) (hit bool) {
	c.useClock++
	if i := c.findIdx(r.base, r.key); i >= 0 {
		c.slab[i+c.ways] = c.useClock
		if write {
			c.meta[r.set].dirty |= 1 << uint(i-r.base)
			c.Writes.Observe(true)
		} else {
			c.Reads.Observe(true)
		}
		return true
	}
	if write {
		c.Writes.Observe(false)
	} else {
		c.Reads.Observe(false)
	}
	return false
}

// AccessStreamReadAt is AccessAt(r, false) that additionally seeds the
// same-line memo on a hit, arming SameLineReadHit for the next read of
// this line. The hierarchy calls it for the streaming access kinds
// (edge lists, graph metadata) and plain AccessAt for everything else,
// so point accesses (vertex properties) interleaved with a stream do not
// evict the stream's memo. Seeding affects only which later reads take
// the fast path — the replayed accounting is identical either way.
func (c *Cache) AccessStreamReadAt(r Ref) (hit bool) {
	c.useClock++
	if i := c.findIdx(r.base, r.key); i >= 0 {
		c.slab[i+c.ways] = c.useClock
		c.Reads.Observe(true)
		c.hotLine = r.la
		c.hotIdx = i
		return true
	}
	c.Reads.Observe(false)
	return false
}

// Fill installs the line containing addr, returning the evicted victim if
// any. If dirty is set the new line is installed dirty (write-allocate
// stores).
func (c *Cache) Fill(a memsys.Addr, dirty bool) (victim EvictedLine, evicted bool) {
	return c.FillAt(c.Resolve(a), dirty)
}

// FillMissAt installs a line the caller has just probed for and missed —
// the known-absent fill contract: between the missing probe and this call
// the cache saw no fill (invalidations are fine; they only remove lines),
// so the present-line refresh probe is skipped entirely. With a free way
// available the fill then touches exactly one way's state, no scan at all.
func (c *Cache) FillMissAt(r Ref, dirty bool) (victim EvictedLine, evicted bool) {
	c.useClock++
	victim, evicted, _ = c.install(r, dirty)
	return victim, evicted
}

// FillMissStreamAt is FillMissAt that additionally seeds the same-line
// memo with the installed line, arming SameLineReadHit for the reads that
// follow a streaming miss. Seeding is skipped when the fill is rejected
// (fully pinned set), so the memo never points at an absent line.
func (c *Cache) FillMissStreamAt(r Ref, dirty bool) (victim EvictedLine, evicted bool) {
	c.useClock++
	victim, evicted, idx := c.install(r, dirty)
	if idx >= 0 {
		c.hotLine = r.la
		c.hotIdx = idx
	}
	return victim, evicted
}

// FillAt is Fill over a pre-resolved Ref: a present line is refreshed
// (LRU touch, dirtied if dirty), an absent one installed.
func (c *Cache) FillAt(r Ref, dirty bool) (victim EvictedLine, evicted bool) {
	c.useClock++
	if i := c.findIdx(r.base, r.key); i >= 0 {
		// Already present (e.g. refilled by a racing path): refresh.
		c.slab[i+c.ways] = c.useClock
		if dirty {
			c.meta[r.set].dirty |= 1 << uint(i-r.base)
		}
		return EvictedLine{}, false
	}
	victim, evicted, _ = c.install(r, dirty)
	return victim, evicted
}

// install places a known-absent line: lowest free way first (no scan),
// else the LRU victim among non-pinned ways, else rejection when the
// whole set is pinned. The use clock has already been ticked by the
// caller.
func (c *Cache) install(r Ref, dirty bool) (victim EvictedLine, evicted bool, installed int) {
	m := &c.meta[r.set]
	var w int
	if m.free != 0 {
		// Free way: the lowest free bit is the first invalid way a linear
		// scan would pick.
		w = bits.TrailingZeros64(m.free)
		m.free &^= 1 << uint(w)
	} else {
		// Victim scan over the contiguous lastUse row: first way with the
		// minimum stamp, skipping pinned ways.
		uses := c.slab[r.base+c.ways : r.base+2*c.ways]
		if m.pin == 0 {
			w = 0
			min := uses[0]
			for i := 1; i < len(uses); i++ {
				if uses[i] < min {
					w, min = i, uses[i]
				}
			}
		} else {
			w = -1
			var min uint64
			for i, u := range uses {
				if m.pin>>uint(i)&1 != 0 {
					continue
				}
				if w == -1 || u < min {
					w, min = i, u
				}
			}
			if w == -1 {
				// A fully pinned set rejects the fill (the caller treats
				// the access as uncached).
				return EvictedLine{}, false, -1
			}
		}
		idx := r.base + w
		t := c.slab[idx] // valid: free == 0 means every way holds a line
		c.Evictions.Inc()
		d := m.dirty>>uint(w)&1 != 0
		if d {
			c.Writebacks.Inc()
		}
		victim = EvictedLine{Addr: c.reconstruct(r.set, t-1), Dirty: d}
		evicted = true
	}
	idx := r.base + w
	if idx == c.hotIdx {
		// Reached on eviction of the memoized way; for free ways the memo
		// can never point here (it never points at an invalid way), but
		// the check keeps the drop unconditional.
		c.dropHot()
	}
	// The installed way is never pinned (pinned valid ways are excluded
	// from victim selection and pin implies valid), so no pin update is
	// needed.
	c.slab[idx] = r.key
	bit := uint64(1) << uint(w)
	if dirty {
		m.dirty |= bit
	} else {
		m.dirty &^= bit
	}
	c.slab[idx+c.ways] = c.useClock
	return victim, evicted, idx
}

// Pin installs the line containing addr (if absent) and excludes it from
// replacement — the §IX "locked cache lines" technique. It fails (returns
// false) when pinning would fill the whole set, which must keep at least
// one replaceable way.
func (c *Cache) Pin(a memsys.Addr) bool {
	r := c.Resolve(a)
	if i := c.findIdx(r.base, r.key); i >= 0 {
		c.meta[r.set].pin |= 1 << uint(i-r.base)
		return true
	}
	if bits.OnesCount64(c.meta[r.set].pin) >= c.ways-1 {
		return false
	}
	c.FillAt(r, false)
	if i := c.findIdx(r.base, r.key); i >= 0 {
		c.meta[r.set].pin |= 1 << uint(i-r.base)
		return true
	}
	return false
}

// InvalidateAt drops r's line if present, returning whether it was
// present and dirty (the caller is responsible for the writeback). Because
// a Ref encodes only geometry, one Ref can drive the invalidation sweep
// across every same-geometry cache in a hierarchy.
func (c *Cache) InvalidateAt(r Ref) (present, dirty bool) {
	if i := c.findIdx(r.base, r.key); i >= 0 {
		if i == c.hotIdx {
			c.dropHot()
		}
		m := &c.meta[r.set]
		bit := uint64(1) << uint(i-r.base)
		present, dirty = true, m.dirty&bit != 0
		c.slab[i] = 0
		m.dirty &^= bit
		m.pin &^= bit
		m.free |= bit
	}
	return
}

// reconstruct rebuilds a line-aligned address from set index and tag.
func (c *Cache) reconstruct(set, tag uint64) memsys.Addr {
	return memsys.Addr((tag*c.numSets + set) * memsys.LineSize)
}
