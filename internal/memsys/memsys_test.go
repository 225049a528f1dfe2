package memsys

import (
	"testing"
	"testing/quick"
)

func TestLineAddr(t *testing.T) {
	cases := []struct{ in, want Addr }{
		{0, 0}, {1, 0}, {63, 0}, {64, 64}, {127, 64}, {4096, 4096},
	}
	for _, c := range cases {
		if got := LineAddr(c.in); got != c.want {
			t.Fatalf("LineAddr(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestLineAddrProperty(t *testing.T) {
	f := func(a uint64) bool {
		la := LineAddr(Addr(a))
		return uint64(la)%LineSize == 0 && uint64(la) <= a && a-uint64(la) < LineSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range []Kind{KindVtxProp, KindEdgeList, KindNGraphData, KindActiveList} {
		if k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestLevelStrings(t *testing.T) {
	seen := map[string]bool{}
	for l := Level(0); l < NumLevels; l++ {
		name := l.String()
		if name == "" {
			t.Fatalf("level %d has no name", l)
		}
		if seen[name] {
			t.Fatalf("level name %q duplicated", name)
		}
		seen[name] = true
	}
	if LevelL1.String() != "L1" || LevelSPLocal.String() != "SP-local" {
		t.Fatal("level names wrong")
	}
	if Level(99).String() == "" {
		t.Fatal("unknown level should still render")
	}
}

func TestOpStrings(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" || OpAtomic.String() != "atomic" {
		t.Fatal("op names wrong")
	}
	if Op(9).String() == "" {
		t.Fatal("unknown op should still render")
	}
}

func TestQueueIdleIsFree(t *testing.T) {
	var q Queue
	for i := 0; i < 10; i++ {
		// Widely spaced requests on an idle resource never wait.
		if w := q.Enqueue(Cycles(i*100000), 10); w != 0 {
			t.Fatalf("idle queue wait %d at %d", w, i)
		}
	}
}

func TestQueueSaturationDelays(t *testing.T) {
	var q Queue
	// Demand 4x the capacity: service 40 every 10 cycles.
	var now Cycles
	var last Cycles
	for i := 0; i < 2000; i++ {
		last = q.Enqueue(now, 40)
		now += 10
	}
	if last == 0 {
		t.Fatal("saturated queue should delay requests")
	}
	if q.Utilization() < 0.9 {
		t.Fatalf("utilization %v, want near max", q.Utilization())
	}
}

func TestQueueLightLoadCheap(t *testing.T) {
	var q Queue
	var now Cycles
	var total Cycles
	for i := 0; i < 2000; i++ {
		total += q.Enqueue(now, 1)
		now += 100 // 1% utilization
	}
	if avg := float64(total) / 2000; avg > 1 {
		t.Fatalf("light load average wait %v too high", avg)
	}
}

func TestQueueSkewRobustness(t *testing.T) {
	// A requester far in the future must not inflate the waits seen by
	// requesters slightly in the past (the pathology of busy-until).
	var q Queue
	for i := 0; i < 100; i++ {
		q.Enqueue(Cycles(1000000+i*50), 10)
	}
	w := q.Enqueue(500, 10)
	// The wait must reflect utilization-based queueing, not the 1M-cycle
	// clock skew.
	if w > 1000 {
		t.Fatalf("skewed requester charged %d cycles", w)
	}
}

func TestQueueWaitScalesWithService(t *testing.T) {
	var a, b Queue
	var now Cycles
	var wa, wb Cycles
	for i := 0; i < 5000; i++ {
		wa += a.Enqueue(now, 8)
		wb += b.Enqueue(now, 16)
		now += 20
	}
	if wb <= wa {
		t.Fatalf("heavier service should queue more: %d vs %d", wb, wa)
	}
}
