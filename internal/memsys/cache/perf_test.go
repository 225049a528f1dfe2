package cache

import (
	"testing"

	"omega/internal/memsys"
)

// benchLines sizes the fill sweep at 4× the benchmark cache's capacity,
// so after one warm lap every fill misses and runs the full victim-scan
// and eviction-accounting path.
const benchLines = 4 * benchCacheBytes / memsys.LineSize

const benchCacheBytes = 32 << 10

func benchCache() *Cache {
	return New(Config{SizeBytes: benchCacheBytes, Ways: 8, Name: "bench"})
}

// BenchmarkCacheFill measures the install path under steady eviction
// pressure: probe, victim scan over the set's uses row, eviction
// accounting, and the tag/lastUse/dirty writes.
func BenchmarkCacheFill(b *testing.B) {
	c := benchCache()
	for k := 0; k < benchLines; k++ { // warm: every set full, free masks drained
		c.FillAt(c.Resolve(memsys.Addr(k*memsys.LineSize)), false)
	}
	i := 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		c.FillAt(c.Resolve(memsys.Addr((i&(benchLines-1))*memsys.LineSize)), false)
		i++
	}
}

// TestCacheFillZeroAlloc pins the install path's allocation contract:
// fills — including evicting fills — allocate nothing.
func TestCacheFillZeroAlloc(t *testing.T) {
	c := benchCache()
	for k := 0; k < benchLines; k++ {
		c.FillAt(c.Resolve(memsys.Addr(k*memsys.LineSize)), false)
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		c.FillAt(c.Resolve(memsys.Addr((i&(benchLines-1))*memsys.LineSize)), false)
		i++
	})
	if allocs != 0 {
		t.Fatalf("evicting fill allocates %.1f objects/fill, want 0", allocs)
	}
}
