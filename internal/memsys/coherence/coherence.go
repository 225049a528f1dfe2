// Package coherence models a MESI-style directory over the private L1
// caches. It tracks, per cache line, which cores hold copies and whether
// one of them holds the line modified, so the hierarchy can charge
// invalidation traffic, cache-to-cache transfers, and the upgrade
// round-trips that make baseline atomics expensive (paper §III).
//
// The model is a "MESI-lite": it captures the message counts and latency
// events of MESI Two Level (Table III) without simulating transient states.
//
// The directory is probed on every simulated cache access, so its storage
// is a value-typed open-addressing hash table (power-of-two capacity,
// linear probing, backward-shift deletion) instead of a Go map of
// pointers: the steady-state probe performs no allocation and no pointer
// chasing. The table only grows; capacity is bounded by the number of
// lines simultaneously present in the L1s, which the caches bound.
package coherence

import (
	"math/bits"

	"omega/internal/memsys"
	"omega/internal/stats"
)

// dirEntry is the directory state for one line, stored by value in the
// open-addressing table. A zero sharer mask with no owner is removed from
// the table rather than stored, so `used` distinguishes occupancy.
type dirEntry struct {
	line    memsys.Addr
	sharers uint64 // bitmask of cores holding the line
	// check is a per-entry integrity byte derived from the line tag
	// (checkByte). An injected tag flip leaves it stale, so the scrubber
	// can recognize and erase corrupt entries; real directories carry
	// per-entry ECC/parity the same way.
	check uint8
	// resident is a superset of the cores whose L1 physically contains the
	// line. Unlike sharers — which AcquireExclusive truncates, leaving
	// stale-but-present copies untracked — resident bits are set on every
	// acquisition/fill and cleared only when a copy is provably gone
	// (Drop, or a back-invalidation probe that found the line absent), so
	// the hierarchy can restrict its per-core eviction probe loops to
	// resident bits without missing a stale copy.
	resident uint64
	owner    int8 // core holding Modified, or -1
	used     bool
}

// dirInitialCap is the starting table capacity (must be a power of two).
// A 16-core machine with 32 KB L1s tracks at most 16*512 = 8192 lines, so
// the table typically grows a few times early in a run and then stays put.
const dirInitialCap = 1 << 10

// Directory tracks L1 copies. Not safe for concurrent use.
type Directory struct {
	entries []dirEntry
	mask    uint64
	count   int // occupied slots

	// Stats
	Invalidations stats.Counter // individual invalidation messages sent
	C2CTransfers  stats.Counter // dirty cache-to-cache interventions
}

// New builds an empty directory. Sharer and residency masks are 64-bit,
// one bit per core.
func New() *Directory {
	return &Directory{
		entries: make([]dirEntry, dirInitialCap),
		mask:    dirInitialCap - 1,
	}
}

// dirHash mixes a line address into a table index seed (SplitMix64
// finalizer over the line number; the low bits after mixing are uniform
// enough for a power-of-two table).
func dirHash(line memsys.Addr) uint64 {
	x := uint64(line) / memsys.LineSize
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// checkByte derives an entry's integrity byte from its line tag, using
// hash bits disjoint from the table-index bits so a flip that survives
// the index is still caught.
func checkByte(line memsys.Addr) uint8 {
	return uint8(dirHash(line) >> 32)
}

// find returns the slot holding line, or -1.
func (d *Directory) find(line memsys.Addr) int {
	i := dirHash(line) & d.mask
	for {
		e := &d.entries[i]
		if !e.used {
			return -1
		}
		if e.line == line {
			return int(i)
		}
		i = (i + 1) & d.mask
	}
}

// findOrInsert returns the slot holding line, inserting a fresh entry
// (no sharers, no owner) if absent. Insertion may grow the table.
func (d *Directory) findOrInsert(line memsys.Addr) int {
	for {
		i := dirHash(line) & d.mask
		for {
			e := &d.entries[i]
			if !e.used {
				// Keep load factor below 3/4 so probe chains stay short.
				if uint64(d.count+1)*4 > (d.mask+1)*3 {
					d.grow()
					break // re-probe against the grown table
				}
				*e = dirEntry{line: line, check: checkByte(line), owner: -1, used: true}
				d.count++
				return int(i)
			}
			if e.line == line {
				return int(i)
			}
			i = (i + 1) & d.mask
		}
	}
}

// grow doubles the table and rehashes every occupied slot.
func (d *Directory) grow() {
	old := d.entries
	d.entries = make([]dirEntry, 2*len(old))
	d.mask = uint64(len(d.entries) - 1)
	for i := range old {
		if !old[i].used {
			continue
		}
		j := dirHash(old[i].line) & d.mask
		for d.entries[j].used {
			j = (j + 1) & d.mask
		}
		d.entries[j] = old[i]
	}
}

// erase empties slot i, backward-shifting any follow-on entries whose
// probe chain crossed i so lookups never need tombstones.
func (d *Directory) erase(i uint64) {
	d.count--
	j := i
	for {
		j = (j + 1) & d.mask
		e := &d.entries[j]
		if !e.used {
			break
		}
		k := dirHash(e.line) & d.mask
		// If e's home slot k lies cyclically in (i, j], the gap at i does
		// not break e's probe chain; keep scanning. Otherwise move e back
		// into the gap and continue from its old slot.
		inRange := false
		if i <= j {
			inRange = i < k && k <= j
		} else {
			inRange = i < k || k <= j
		}
		if inRange {
			continue
		}
		d.entries[i] = *e
		i = j
	}
	d.entries[i] = dirEntry{}
}

// ReadOutcome describes what a read acquisition required.
type ReadOutcome struct {
	// DirtyOwner is the core that held the line Modified (now downgraded
	// to Shared with a writeback), or -1.
	DirtyOwner int
}

// AcquireShared records that core is gaining a Shared copy of line.
func (d *Directory) AcquireShared(line memsys.Addr, core int) ReadOutcome {
	e := &d.entries[d.findOrInsert(line)]
	out := ReadOutcome{DirtyOwner: -1}
	if e.owner >= 0 && int(e.owner) != core {
		out.DirtyOwner = int(e.owner)
		d.C2CTransfers.Inc()
		e.owner = -1
	}
	e.resident |= 1 << uint(core)
	if e.owner == int8(core) {
		// Already modified locally; keep M (read hit under M).
		return out
	}
	e.sharers |= 1 << uint(core)
	return out
}

// FillShared records that core's L1 installed line after a read miss or
// prefetch: it marks residency and, exactly when the line is untracked
// (zero sharers), performs AcquireShared's state change. With zero
// sharers there is no owner (an owner is always its line's only sharer),
// so that change is just adding core as a sharer.
func (d *Directory) FillShared(line memsys.Addr, core int) {
	e := &d.entries[d.findOrInsert(line)]
	if e.sharers == 0 {
		e.sharers = 1 << uint(core)
	}
	e.resident |= 1 << uint(core)
}

// WriteOutcome describes what a write/atomic acquisition required.
type WriteOutcome struct {
	// Invalidated is the number of other cores whose copies were
	// invalidated.
	Invalidated int
	// DirtyOwner is the core whose Modified copy supplied the data
	// (cache-to-cache), or -1.
	DirtyOwner int
}

// AcquireExclusive records that core is gaining an exclusive (Modified)
// copy of line, invalidating all other holders. It serves both write
// paths, the miss and the L1 write hit. When core already owns the line
// it changes nothing but the resident bit and reports no invalidation
// and no dirty owner: an owner is always its line's only sharer.
func (d *Directory) AcquireExclusive(line memsys.Addr, core int) WriteOutcome {
	e := &d.entries[d.findOrInsert(line)]
	out := WriteOutcome{DirtyOwner: -1}
	if e.owner >= 0 && int(e.owner) != core {
		out.DirtyOwner = int(e.owner)
		d.C2CTransfers.Inc()
	}
	out.Invalidated = bits.OnesCount64(e.sharers &^ (1 << uint(core)))
	d.Invalidations.Add(uint64(out.Invalidated))
	e.sharers = 1 << uint(core)
	e.resident |= 1 << uint(core)
	e.owner = int8(core)
	return out
}

// Drop records that core evicted its copy of line (silent for clean
// Shared; the caller handles any writeback traffic for Modified).
func (d *Directory) Drop(line memsys.Addr, core int) {
	i := d.find(line)
	if i < 0 {
		return
	}
	e := &d.entries[i]
	if e.owner == int8(core) {
		e.owner = -1
	}
	e.sharers &^= 1 << uint(core)
	e.resident &^= 1 << uint(core)
	if e.sharers == 0 && e.owner < 0 && e.resident == 0 {
		d.erase(uint64(i))
	}
}

// Resident returns the superset mask of cores whose L1 may contain line
// (see dirEntry.resident), or 0 when the line is untracked. Probing a core
// outside this mask is guaranteed to miss.
func (d *Directory) Resident(line memsys.Addr) uint64 {
	i := d.find(line)
	if i < 0 {
		return 0
	}
	return d.entries[i].resident
}

// ClearResident retracts a stale residency bit after a probe of core's L1
// found line absent. It touches no sharer/owner state and no counters.
func (d *Directory) ClearResident(line memsys.Addr, core int) {
	i := d.find(line)
	if i < 0 {
		return
	}
	e := &d.entries[i]
	e.resident &^= 1 << uint(core)
	if e.sharers == 0 && e.owner < 0 && e.resident == 0 {
		d.erase(uint64(i))
	}
}

// Lines returns how many lines the directory currently tracks.
func (d *Directory) Lines() int { return d.count }

// CorruptEntry injects a single tag bit flip into one occupied
// probe-table entry: slotSel picks the victim (the first occupied slot
// scanning from slotSel&mask) and bitSel picks which line-number bit to
// flip. The entry's check byte is left stale, exactly like a radiation
// upset in a real directory SRAM. Reports false when the table is empty.
func (d *Directory) CorruptEntry(slotSel, bitSel uint64) bool {
	if d.count == 0 {
		return false
	}
	i := slotSel & d.mask
	for !d.entries[i].used {
		i = (i + 1) & d.mask
	}
	// Flip a bit above the 64 B line offset, within the index/tag range
	// real natural-graph footprints exercise.
	d.entries[i].line ^= 1 << (6 + bitSel%10)
	return true
}

// Scrub walks the probe table erasing every entry whose check byte no
// longer matches its line tag — the detection-and-repair arm of the
// directory fault site. Erasure uses the same backward-shift deletion as
// Drop, so the table stays tombstone-free; a slot refilled by the shift
// is rechecked before the walk advances (a corrupt entry can be moved
// into an already-scanned slot, which the next scrub would catch — one
// pass per triggering access is the model). Returns how many entries
// were repaired (erased; a dropped entry just re-inserts on next use).
func (d *Directory) Scrub() (repaired int) {
	for i := uint64(0); i < uint64(len(d.entries)); {
		e := &d.entries[i]
		if e.used && e.check != checkByte(e.line) {
			d.erase(i)
			repaired++
			continue // the erase may have shifted an entry into slot i
		}
		i++
	}
	return repaired
}
