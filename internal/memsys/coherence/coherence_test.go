package coherence

import (
	"math/bits"
	"testing"

	"omega/internal/memsys"
	"omega/internal/stats"
)

const line = memsys.Addr(0x1000)

func TestReadSharing(t *testing.T) {
	d := New()
	out := d.AcquireShared(line, 0)
	if out.DirtyOwner != -1 {
		t.Fatal("clean line should have no dirty owner")
	}
	d.AcquireShared(line, 1)
	d.AcquireShared(line, 2)
	if d.Holders(line) != 3 {
		t.Fatalf("holders %d", d.Holders(line))
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	d := New()
	d.AcquireShared(line, 0)
	d.AcquireShared(line, 1)
	d.AcquireShared(line, 2)
	out := d.AcquireExclusive(line, 0)
	if out.Invalidated != 2 {
		t.Fatalf("invalidated %d, want 2", out.Invalidated)
	}
	if d.Holders(line) != 1 || !d.IsModifiedBy(line, 0) {
		t.Fatal("writer should be sole modified holder")
	}
	if d.Invalidations.Value() != 2 {
		t.Fatalf("invalidation count %d", d.Invalidations.Value())
	}
}

func TestWriteAfterWriteIsC2C(t *testing.T) {
	d := New()
	d.AcquireExclusive(line, 0)
	out := d.AcquireExclusive(line, 1)
	if out.DirtyOwner != 0 {
		t.Fatalf("dirty owner %d, want 0", out.DirtyOwner)
	}
	if out.Invalidated != 1 {
		t.Fatalf("invalidated %d, want 1 (the old owner)", out.Invalidated)
	}
	if !d.IsModifiedBy(line, 1) || d.IsModifiedBy(line, 0) {
		t.Fatal("ownership transfer broken")
	}
	if d.C2CTransfers.Value() != 1 {
		t.Fatalf("c2c %d", d.C2CTransfers.Value())
	}
}

func TestReadAfterWriteDowngrades(t *testing.T) {
	d := New()
	d.AcquireExclusive(line, 0)
	out := d.AcquireShared(line, 1)
	if out.DirtyOwner != 0 {
		t.Fatalf("dirty owner %d", out.DirtyOwner)
	}
	// Both now share.
	if d.Holders(line) != 2 {
		t.Fatalf("holders %d", d.Holders(line))
	}
	// Neither is Modified any more.
	if d.IsModifiedBy(line, 0) || d.IsModifiedBy(line, 1) {
		t.Fatal("M state should be gone after downgrade")
	}
}

func TestReadHitUnderOwnModified(t *testing.T) {
	d := New()
	d.AcquireExclusive(line, 2)
	out := d.AcquireShared(line, 2)
	if out.DirtyOwner != -1 {
		t.Fatal("own M copy is not a remote intervention")
	}
	if !d.IsModifiedBy(line, 2) {
		t.Fatal("owner must keep M on its own read")
	}
}

func TestDrop(t *testing.T) {
	d := New()
	d.AcquireExclusive(line, 0)
	d.Drop(line, 0)
	if d.IsModifiedBy(line, 0) || d.Holders(line) != 0 || d.Lines() != 0 {
		t.Fatal("dropping the M copy should leave the line untracked")
	}
	d.Drop(line, 0)
	if d.Lines() != 0 {
		t.Fatal("double drop should be a no-op")
	}
	d.AcquireShared(line, 1)
	d.AcquireShared(line, 2)
	d.Drop(line, 1)
	if d.Holders(line) != 1 || d.IsModifiedBy(line, 1) || d.IsModifiedBy(line, 2) {
		t.Fatal("dropping a shared copy should leave the other sharer, unmodified")
	}
	d.AcquireExclusive(line, 2)
	d.Drop(line, 1) // not a holder: ownership stays
	if !d.IsModifiedBy(line, 2) || d.Holders(line) != 1 {
		t.Fatal("a non-holder's drop disturbed the owner")
	}
}

func TestDropUnknownLine(t *testing.T) {
	d := New()
	d.Drop(0xdead000, 0)
	if d.Lines() != 0 {
		t.Fatal("unknown line drop should track nothing")
	}
}

func TestManyLinesIndependent(t *testing.T) {
	d := New()
	r := stats.NewRand(5)
	for i := 0; i < 1000; i++ {
		l := memsys.Addr(r.Intn(64)) * 64
		c := r.Intn(8)
		if r.Intn(2) == 0 {
			d.AcquireShared(l, c)
		} else {
			d.AcquireExclusive(l, c)
			if !d.IsModifiedBy(l, c) {
				t.Fatal("writer must own after exclusive")
			}
			if d.Holders(l) != 1 {
				t.Fatalf("holders %d after exclusive", d.Holders(l))
			}
		}
	}
}

// TestTableGrowthAndErase drives the open-addressing table through
// several doublings and a full teardown, checking that every line keeps
// its state across rehashes and that backward-shift deletion never
// strands a reachable entry.
func TestTableGrowthAndErase(t *testing.T) {
	const n = 20000 // well past several growths from the initial capacity
	d := New()
	for i := 0; i < n; i++ {
		d.AcquireShared(memsys.Addr(i*memsys.LineSize), i%16)
	}
	if d.Lines() != n {
		t.Fatalf("Lines() = %d, want %d", d.Lines(), n)
	}
	for i := 0; i < n; i++ {
		line := memsys.Addr(i * memsys.LineSize)
		if d.Holders(line) != 1 {
			t.Fatalf("line %d lost after growth: holders %d", i, d.Holders(line))
		}
	}
	// Erase every other line, then verify survivors are still reachable
	// through any backward-shifted probe chains.
	for i := 0; i < n; i += 2 {
		d.Drop(memsys.Addr(i*memsys.LineSize), i%16)
	}
	if d.Lines() != n/2 {
		t.Fatalf("Lines() = %d after drops, want %d", d.Lines(), n/2)
	}
	for i := 0; i < n; i++ {
		want := i % 2
		if got := d.Holders(memsys.Addr(i * memsys.LineSize)); got != want {
			t.Fatalf("line %d: holders %d, want %d", i, got, want)
		}
	}
}

// Holders returns how many cores currently hold line.
func (d *Directory) Holders(line memsys.Addr) int {
	return bits.OnesCount64(d.Sharers(line))
}

// IsModifiedBy reports whether core holds line in Modified state.
func (d *Directory) IsModifiedBy(line memsys.Addr, core int) bool {
	i := d.find(line)
	return i >= 0 && d.entries[i].owner == int8(core)
}

// Sharers returns the bitmask of cores holding line (bit c = core c), or 0
// when the line is untracked. A core's bit is set whenever its L1 holds
// the line, so callers can restrict per-core probe loops to set bits.
func (d *Directory) Sharers(line memsys.Addr) uint64 {
	i := d.find(line)
	if i < 0 {
		return 0
	}
	return d.entries[i].sharers
}
