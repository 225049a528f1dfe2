package coherence

import (
	"testing"

	"omega/internal/memsys"
)

func TestCorruptEntryEmptyTable(t *testing.T) {
	d := New()
	if d.CorruptEntry(5, 3) {
		t.Fatal("corrupting an empty table reported success")
	}
	if d.Scrub() != 0 {
		t.Fatal("scrubbing an empty table repaired something")
	}
}

func TestCorruptEntryThenScrub(t *testing.T) {
	d := New()
	for i := 0; i < 32; i++ {
		d.AcquireShared(memsys.Addr(0x1000+i*memsys.LineSize), 0)
	}
	if d.Lines() != 32 {
		t.Fatalf("lines %d", d.Lines())
	}
	if !d.CorruptEntry(7, 3) {
		t.Fatal("corruption found no victim")
	}
	// A clean scrub pass must erase exactly the corrupted entry (its
	// flipped tag no longer matches the stored check byte) and nothing
	// else; the directory then has one fewer tracked line.
	if repaired := d.Scrub(); repaired != 1 {
		t.Fatalf("scrub repaired %d entries, want 1", repaired)
	}
	if d.Lines() != 31 {
		t.Fatalf("lines after scrub %d, want 31", d.Lines())
	}
	if d.Scrub() != 0 {
		t.Fatal("second scrub found more corruption")
	}
}

// TestScrubKeepsTableUsable: after corrupt+scrub, the erased line simply
// re-inserts on next use and probe chains still resolve every other line
// (the backward-shift erase left no broken chains).
func TestScrubKeepsTableUsable(t *testing.T) {
	d := New()
	lines := make([]memsys.Addr, 64)
	for i := range lines {
		lines[i] = memsys.Addr(0x4000 + i*memsys.LineSize)
		d.AcquireShared(lines[i], i%4)
	}
	for trial := uint64(0); trial < 8; trial++ {
		if !d.CorruptEntry(trial*37, trial) {
			t.Fatal("no victim")
		}
		d.Scrub()
	}
	for i, l := range lines {
		// Re-acquiring is always legal: either the line survived (hit) or
		// was scrubbed away (fresh insert). Holders must end up >= 1.
		d.AcquireShared(l, i%4)
		if d.Holders(l) < 1 {
			t.Fatalf("line %d lost after scrubs", i)
		}
	}
}

// TestCorruptWithoutScrubPerturbsLookup: with scrubbing disabled the
// flipped tag makes the directory treat the victim as a brand-new line —
// the silent-corruption arm the campaign's directory site measures.
func TestCorruptWithoutScrubPerturbsLookup(t *testing.T) {
	d := New()
	d.AcquireShared(line, 0)
	d.AcquireShared(line, 1)
	if !d.CorruptEntry(0, 2) {
		t.Fatal("no victim")
	}
	// The original address now misses its entry: the directory believes
	// nobody holds it.
	if h := d.Holders(line); h != 0 {
		t.Fatalf("corrupted entry still found: holders %d", h)
	}
}
