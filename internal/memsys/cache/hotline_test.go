package cache

import "testing"

// The same-line memo (hotLine/hotIdx, consulted via SameLineReadHit)
// must die on every event that can change the identity of the memoized
// way: invalidation, eviction, and explicit DropHot. These tests pin each
// edge individually; the machine-level equivalence tests in internal/core
// cover the composed behaviour.

func TestSameLineReadHitColdRefuses(t *testing.T) {
	c := small()
	if c.SameLineReadHit(0x1000) {
		t.Fatal("cold cache validated a memo")
	}
}

func TestFillStreamArmsAndReplaysHit(t *testing.T) {
	c := small()
	c.Fill(0x2000, false) // plain fill: must NOT arm the memo
	if c.SameLineReadHit(0x2000) {
		t.Fatal("plain Fill armed the memo")
	}
	c.FillMissStreamAt(c.Resolve(0x1000), false)
	hitsBefore := c.Reads.Hits
	if !c.SameLineReadHit(0x1008) {
		t.Fatal("streamed fill did not arm the memo for its line")
	}
	if c.Reads.Hits != hitsBefore+1 {
		t.Fatalf("replay did not record exactly one read hit: %d -> %d", hitsBefore, c.Reads.Hits)
	}
	if c.SameLineReadHit(0x1040) {
		t.Fatal("memo validated a different line")
	}
}

func TestAccessStreamReadArmsOnHit(t *testing.T) {
	c := small()
	c.Fill(0x1000, false)
	if !c.AccessStreamReadAt(c.Resolve(0x1000)) {
		t.Fatal("expected hit")
	}
	if !c.SameLineReadHit(0x1010) {
		t.Fatal("stream read hit did not arm the memo")
	}
	// A plain (non-stream) access of another line must not move the memo.
	c.Fill(0x2000, false)
	c.Access(0x2000, false)
	if !c.SameLineReadHit(0x1010) {
		t.Fatal("plain access of another line disturbed the memo")
	}
}

func TestInvalidateDropsMemo(t *testing.T) {
	c := small()
	c.FillMissStreamAt(c.Resolve(0x1000), false)
	c.Invalidate(0x1000)
	if c.SameLineReadHit(0x1000) {
		t.Fatal("memo survived invalidation of its line")
	}
}

func TestEvictionDropsMemo(t *testing.T) {
	c := small() // 2-way, 8 sets, set stride 512 B
	const stride = 512
	c.FillMissStreamAt(c.Resolve(0*stride), false)
	// Two conflicting fills into the same set evict the memoized way.
	c.Fill(8*stride, false)
	c.Fill(16*stride, false)
	if c.SameLineReadHit(0) {
		t.Fatal("memo survived eviction of its way")
	}
}

func TestDropHotForcesReprobeThenRearms(t *testing.T) {
	c := small()
	c.FillMissStreamAt(c.Resolve(0x1000), false)
	c.DropHot()
	if c.SameLineReadHit(0x1000) {
		t.Fatal("memo survived DropHot")
	}
	if !c.AccessStreamReadAt(c.Resolve(0x1000)) {
		t.Fatal("line should still be present")
	}
	if !c.SameLineReadHit(0x1000) {
		t.Fatal("stream read did not re-arm after DropHot")
	}
}
