package coherence

import (
	"testing"

	"omega/internal/memsys"
)

// BenchmarkDirectory measures the open-addressing directory on the mix
// the hierarchy generates: shared acquisitions, exclusive upgrades
// (invalidating sharers), and drops that erase entries. The working set
// cycles so lookups, inserts, and backward-shift deletions all stay hot.
func BenchmarkDirectory(b *testing.B) {
	const (
		cores = 16
		lines = 8192
	)
	d := New()
	// Warm the table to its steady-state capacity.
	for i := 0; i < lines; i++ {
		d.AcquireShared(memsys.Addr(i*memsys.LineSize), i%cores)
	}
	b.Run("acquire-shared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.AcquireShared(memsys.Addr(i%lines*memsys.LineSize), i%cores)
		}
	})
	b.Run("acquire-exclusive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.AcquireExclusive(memsys.Addr(i%lines*memsys.LineSize), i%cores)
		}
	})
	b.Run("drop-reacquire", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			line := memsys.Addr(i % lines * memsys.LineSize)
			core := i % cores
			d.Drop(line, core)
			d.AcquireShared(line, core)
		}
	})
	b.Run("lookup", func(b *testing.B) {
		b.ReportAllocs()
		var holders int
		for i := 0; i < b.N; i++ {
			holders += d.Holders(memsys.Addr(i % lines * memsys.LineSize))
		}
		_ = holders
	})
}
