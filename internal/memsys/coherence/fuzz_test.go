package coherence

import (
	"testing"

	"omega/internal/memsys"
	"omega/internal/stats"
)

// The operations of a FuzzDirectoryOps script. Each op is two bytes: the
// op byte (kind in the low three bits modulo numDirOps, the core in bits
// 3-4, CorruptEntry's bit selector in bits 5-7) and a line byte (the line
// index modulo fuzzLines; CorruptEntry's slot selector).
const (
	opAcquireShared    = iota // AcquireShared
	opFillShared              // FillShared
	opAcquireExclusive        // AcquireExclusive
	opDrop                    // Drop
	opClearResident           // ClearResident
	opCorruptScrub            // CorruptEntry, then Scrub
	numDirOps
)

// fuzzCores and fuzzLines keep scripts on a few cores and lines, so every
// op meets shared, owned and contended lines.
const (
	fuzzCores = 4
	fuzzLines = 4
)

// dirOp encodes one script op.
func dirOp(kind, core, line int) []byte {
	return []byte{byte(kind) | byte(core)<<3, byte(line)}
}

// singleOwnerScript is the script of the former single-owner property
// test: 2000 random shared acquisitions, exclusive acquisitions and drops
// by 4 cores over 3 lines.
func singleOwnerScript() []byte {
	r := stats.NewRand(11)
	var script []byte
	for i := 0; i < 2000; i++ {
		l := r.Intn(3)
		c := r.Intn(4)
		kind := []int{opAcquireShared, opAcquireExclusive, opDrop}[r.Intn(3)]
		script = append(script, dirOp(kind, c, l)...)
	}
	return script
}

// randomDirScript is a script of n random ops of every kind.
func randomDirScript(seed uint64, n int) []byte {
	r := stats.NewRand(seed)
	script := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		script = append(script, byte(r.Intn(256)), byte(r.Intn(256)))
	}
	return script
}

// FuzzDirectoryOps runs op scripts over every mutating directory
// operation and requires, after each step, that every line has at most
// one owner and that an owner is its line's only sharer (owner >= 0
// implies sharers == {owner}). Both the L1 write-hit path, which calls
// AcquireExclusive on a line its core may already own, and FillShared's
// zero-sharer test rely on the second property. The table's occupancy
// count must also match its occupied slots.
func FuzzDirectoryOps(f *testing.F) {
	f.Add(singleOwnerScript())
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(randomDirScript(seed, 500))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		d := New()
		for i := 0; i+1 < len(script); i += 2 {
			op := script[i]
			kind := int(op&7) % numDirOps
			core := int(op>>3) & (fuzzCores - 1)
			l := memsys.Addr(int(script[i+1])%fuzzLines) * memsys.LineSize
			switch kind {
			case opAcquireShared:
				d.AcquireShared(l, core)
			case opFillShared:
				d.FillShared(l, core)
			case opAcquireExclusive:
				d.AcquireExclusive(l, core)
			case opDrop:
				d.Drop(l, core)
			case opClearResident:
				d.ClearResident(l, core)
			case opCorruptScrub:
				d.CorruptEntry(uint64(script[i+1]), uint64(op>>5))
				d.Scrub()
			}
			fail := func(format string, args ...any) {
				t.Fatalf("op %d (kind %d, core %d, line %#x): "+format,
					append([]any{i / 2, kind, core, l}, args...)...)
			}
			for line := 0; line < fuzzLines; line++ {
				a := memsys.Addr(line) * memsys.LineSize
				owners := 0
				for c := 0; c < fuzzCores; c++ {
					if d.IsModifiedBy(a, c) {
						owners++
					}
				}
				if owners > 1 {
					fail("line %#x has %d owners", a, owners)
				}
			}
			// Every entry, a corrupted one that Scrub's check byte missed
			// included, must keep the owner-only-sharer property.
			used := 0
			for _, e := range d.entries {
				if !e.used {
					continue
				}
				used++
				if e.owner >= 0 && e.sharers != 1<<uint(e.owner) {
					fail("line %#x: owner %d with sharers %#b", e.line, e.owner, e.sharers)
				}
			}
			if used != d.Lines() {
				fail("%d occupied slots, Lines() %d", used, d.Lines())
			}
		}
	})
}
