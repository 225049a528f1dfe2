package cache

import (
	"testing"

	"omega/internal/memsys"
)

// The same-line memo (hotLine/hotIdx, armed by ArmHot and consulted via
// HotWay) must die on every event that can change the identity of the
// memoized way: invalidation, eviction, and explicit DropHot. These tests
// pin each edge individually; the machine-level equivalence tests in
// internal/core cover the composed behaviour.

// streamRead is the hierarchy's streaming read: AccessAt, arming the memo
// with the hit way.
func streamRead(c *Cache, a memsys.Addr) bool {
	way := c.AccessAt(c.Resolve(a), false)
	if way >= 0 {
		c.ArmHot(a, way)
	}
	return way >= 0
}

// streamFill is the hierarchy's streaming fill: FillAt, arming the memo
// with the installed way.
func streamFill(c *Cache, a memsys.Addr) {
	if _, _, way := c.FillAt(c.Resolve(a), false); way >= 0 {
		c.ArmHot(a, way)
	}
}

// memoHit is fastRead's memo hit: a read of the memoized line replayed on
// its way without a probe. It reports whether the memo served the read.
func memoHit(c *Cache, a memsys.Addr) bool {
	way := c.HotWay(a)
	if way >= 0 {
		c.SetLastUse(way, c.FoldReadHits(1))
	}
	return way >= 0
}

func TestHotWayColdRefuses(t *testing.T) {
	c := small()
	if memoHit(c, 0x1000) {
		t.Fatal("cold cache validated a memo")
	}
}

func TestFillStreamArmsAndReplaysHit(t *testing.T) {
	c := small()
	fill(c, 0x2000, false) // plain fill: must NOT arm the memo
	if memoHit(c, 0x2000) {
		t.Fatal("plain fill armed the memo")
	}
	streamFill(c, 0x1000)
	hitsBefore := c.Reads.Hits
	if !memoHit(c, 0x1008) {
		t.Fatal("streamed fill did not arm the memo for its line")
	}
	if c.Reads.Hits != hitsBefore+1 {
		t.Fatalf("replay did not record exactly one read hit: %d -> %d", hitsBefore, c.Reads.Hits)
	}
	if memoHit(c, 0x1040) {
		t.Fatal("memo validated a different line")
	}
}

func TestArmHotOnStreamReadHit(t *testing.T) {
	c := small()
	fill(c, 0x1000, false)
	if !streamRead(c, 0x1000) {
		t.Fatal("expected hit")
	}
	if !memoHit(c, 0x1010) {
		t.Fatal("stream read hit did not arm the memo")
	}
	// A plain (non-stream) access of another line must not move the memo.
	fill(c, 0x2000, false)
	c.AccessAt(c.Resolve(0x2000), false)
	if !memoHit(c, 0x1010) {
		t.Fatal("plain access of another line disturbed the memo")
	}
}

func TestInvalidateDropsMemo(t *testing.T) {
	c := small()
	streamFill(c, 0x1000)
	c.InvalidateAt(c.Resolve(0x1000))
	if memoHit(c, 0x1000) {
		t.Fatal("memo survived invalidation of its line")
	}
}

func TestEvictionDropsMemo(t *testing.T) {
	c := small() // 2-way, 8 sets, set stride 512 B
	const stride = 512
	streamFill(c, 0*stride)
	// Two conflicting fills into the same set evict the memoized way.
	fill(c, 8*stride, false)
	fill(c, 16*stride, false)
	if memoHit(c, 0) {
		t.Fatal("memo survived eviction of its way")
	}
}

func TestDropHotForcesReprobeThenRearms(t *testing.T) {
	c := small()
	streamFill(c, 0x1000)
	c.DropHot()
	if memoHit(c, 0x1000) {
		t.Fatal("memo survived DropHot")
	}
	if !streamRead(c, 0x1000) {
		t.Fatal("line should still be present")
	}
	if !memoHit(c, 0x1000) {
		t.Fatal("stream read did not re-arm after DropHot")
	}
}
