package memsys

import "testing"

// BenchmarkQueueEnqueue measures the M/D/1 delay arithmetic at the two
// operating points that dominate the miss path: an idle resource (every
// request rolls a fresh window) and a loaded one (the open window's fold
// against the smoothed estimate, with window rolls amortized across the
// stream).
func BenchmarkQueueEnqueue(b *testing.B) {
	b.Run("idle", func(b *testing.B) {
		var q Queue
		now := Cycles(0)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			now += 4096 // every request lands in a fresh, empty window
			q.Enqueue(now, 1)
		}
	})
	b.Run("loaded", func(b *testing.B) {
		var q Queue
		now := Cycles(0)
		for i := 0; i < 4096; i++ { // drive util up to a steady estimate
			now += 13
			q.Enqueue(now, 11)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			now += 13
			q.Enqueue(now, 11)
		}
	})
}

// TestQueueEnqueueZeroAlloc pins Enqueue's allocation contract on both
// operating points.
func TestQueueEnqueueZeroAlloc(t *testing.T) {
	var idle, loaded Queue
	nowIdle, nowLoaded := Cycles(0), Cycles(0)
	for i := 0; i < 4096; i++ {
		nowLoaded += 13
		loaded.Enqueue(nowLoaded, 11)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		nowIdle += 4096
		idle.Enqueue(nowIdle, 1)
		nowLoaded += 13
		loaded.Enqueue(nowLoaded, 11)
	})
	if allocs != 0 {
		t.Fatalf("Enqueue allocates %.1f objects/call, want 0", allocs)
	}
}
