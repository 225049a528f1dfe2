package cache

import (
	"testing"
	"testing/quick"

	"omega/internal/memsys"
	"omega/internal/stats"
)

func small() *Cache {
	// 1 KB, 2-way, 64 B lines -> 8 sets.
	return New(Config{SizeBytes: 1 << 10, Ways: 2, Name: "t"})
}

func TestMissThenHit(t *testing.T) {
	c := small()
	if c.AccessAt(c.Resolve(0x1000), false) {
		t.Fatal("cold cache should miss")
	}
	c.Fill(0x1000, false)
	if !c.AccessAt(c.Resolve(0x1000), false) {
		t.Fatal("filled line should hit")
	}
	if !c.AccessAt(c.Resolve(0x1038), false) {
		t.Fatal("same line, different offset should hit")
	}
	if c.AccessAt(c.Resolve(0x1040), false) {
		t.Fatal("next line should miss")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := small() // 8 sets => set stride is 8*64 = 512 bytes
	const stride = 512
	// Fill both ways of set 0.
	c.Fill(0*stride, false)
	c.Fill(1*stride, false)
	// Touch the first line so the second becomes LRU.
	c.AccessAt(c.Resolve(0*stride), false)
	// Fill a third line in set 0: must evict line 1 (LRU).
	victim, evicted := c.Fill(2*stride, false)
	if !evicted {
		t.Fatal("full set must evict")
	}
	if victim.Addr != 1*stride {
		t.Fatalf("evicted %#x, want %#x", victim.Addr, stride)
	}
	if !c.LookupAt(c.Resolve(0)) || c.LookupAt(c.Resolve(1*stride)) || !c.LookupAt(c.Resolve(2*stride)) {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestDirtyEvictionReportsWriteback(t *testing.T) {
	c := small()
	const stride = 512
	c.Fill(0, true) // dirty
	c.Fill(stride, false)
	victim, evicted := c.Fill(2*stride, false)
	if !evicted || !victim.Dirty || victim.Addr != 0 {
		t.Fatalf("expected dirty victim at 0, got %+v evicted=%v", victim, evicted)
	}
	if c.Writebacks.Value() != 1 {
		t.Fatalf("writebacks=%d", c.Writebacks.Value())
	}
}

func TestWriteDirtiesLine(t *testing.T) {
	c := small()
	c.Fill(0, false)
	c.AccessAt(c.Resolve(0), true)
	present, dirty := c.InvalidateAt(c.Resolve(0))
	if !present || !dirty {
		t.Fatalf("present=%v dirty=%v", present, dirty)
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Fill(0x2000, false)
	present, dirty := c.InvalidateAt(c.Resolve(0x2000))
	if !present || dirty {
		t.Fatalf("present=%v dirty=%v", present, dirty)
	}
	if c.LookupAt(c.Resolve(0x2000)) {
		t.Fatal("line should be gone")
	}
	if present, _ := c.InvalidateAt(c.Resolve(0x9999)); present {
		t.Fatal("absent line should report not present")
	}
}

func TestFillIdempotentWhenPresent(t *testing.T) {
	c := small()
	c.Fill(0, false)
	if _, evicted := c.Fill(0, true); evicted {
		t.Fatal("refilling present line must not evict")
	}
	// The refill with dirty should mark it dirty.
	_, dirty := c.InvalidateAt(c.Resolve(0))
	if !dirty {
		t.Fatal("refill-dirty lost")
	}
}

func TestHitRateAccounting(t *testing.T) {
	c := small()
	c.AccessAt(c.Resolve(0), false) // miss
	c.Fill(0, false)
	c.AccessAt(c.Resolve(0), false) // hit
	c.AccessAt(c.Resolve(0), true)  // hit (write)
	c.AccessAt(c.Resolve(64), true) // miss (write)
	if c.Reads.Total != 2 || c.Reads.Hits != 1 {
		t.Fatalf("reads %d/%d", c.Reads.Hits, c.Reads.Total)
	}
	if c.Writes.Total != 2 || c.Writes.Hits != 1 {
		t.Fatalf("writes %d/%d", c.Writes.Hits, c.Writes.Total)
	}
}

func TestVictimAddressReconstruction(t *testing.T) {
	// Property: for any filled address, the victim produced by conflicting
	// fills reports the original line address.
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		c := New(Config{SizeBytes: 2 << 10, Ways: 1, Name: "dm"})
		numSets := (2 << 10) / 64
		set := r.Intn(numSets)
		a1 := memsys.Addr((r.Intn(100)*numSets + set) * 64)
		a2 := memsys.Addr(((r.Intn(100)+200)*numSets + set) * 64)
		c.Fill(a1, false)
		victim, evicted := c.Fill(a2, false)
		return evicted && victim.Addr == memsys.LineAddr(a1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInclusionNeverExceedsCapacity(t *testing.T) {
	c := small()
	r := stats.NewRand(77)
	live := map[memsys.Addr]bool{}
	for i := 0; i < 5000; i++ {
		a := memsys.Addr(r.Intn(1<<16)) &^ 63
		if !c.AccessAt(c.Resolve(a), r.Intn(2) == 0) {
			if victim, evicted := c.Fill(a, false); evicted {
				if !live[victim.Addr] {
					t.Fatalf("evicted line %#x never filled", victim.Addr)
				}
				delete(live, victim.Addr)
			}
			live[a] = true
		}
	}
	if len(live) > 16 { // 1KB / 64B
		t.Fatalf("tracking says %d live lines > capacity", len(live))
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []Config{
		{SizeBytes: 0, Ways: 1},
		{SizeBytes: 1000, Ways: 3}, // not multiple of 3*64
		{SizeBytes: 1 << 10, Ways: 0},
	}
	for _, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %+v should panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}
