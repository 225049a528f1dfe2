package scratchpad

import (
	"testing"
	"testing/quick"

	"omega/internal/memsys"
	"omega/internal/stats"
)

func controller() *Controller {
	return NewController(Config{BytesPerCore: 1024, ChunkSize: 8})
}

func TestMonitorRegisterContains(t *testing.T) {
	m := MonitorRegister{StartAddr: 0x1000, TypeSize: 8, Stride: 8, Count: 100}
	if _, ok := m.Contains(0xFFF); ok {
		t.Fatal("address below start should not match")
	}
	if v, ok := m.Contains(0x1000); !ok || v != 0 {
		t.Fatalf("base address should be vertex 0: %d %v", v, ok)
	}
	if v, ok := m.Contains(0x1000 + 8*37 + 3); !ok || v != 37 {
		t.Fatalf("mid-entry address should be vertex 37: %d %v", v, ok)
	}
	if _, ok := m.Contains(0x1000 + 8*100); ok {
		t.Fatal("address past the array should not match")
	}
}

func TestMonitorRegisterStridedStruct(t *testing.T) {
	// A 4-byte field inside a 12-byte struct: bytes 4..11 of each stride
	// belong to other fields.
	m := MonitorRegister{StartAddr: 0, TypeSize: 4, Stride: 12, Count: 10}
	if v, ok := m.Contains(24); !ok || v != 2 {
		t.Fatalf("stride math wrong: %d %v", v, ok)
	}
	if _, ok := m.Contains(24 + 5); ok {
		t.Fatal("padding bytes should not match this register")
	}
}

func TestConfigureResidency(t *testing.T) {
	c := controller()
	// Two 4-byte props + 2 active bits -> 9 bytes per vertex line.
	n := c.Configure([]MonitorRegister{
		{StartAddr: 0, TypeSize: 4, Stride: 4, Count: 4000},
		{StartAddr: 1 << 16, TypeSize: 4, Stride: 4, Count: 4000},
	}, 4000)
	want := slices * 1024 / 9
	if n != want {
		t.Fatalf("resident %d, want %d", n, want)
	}
}

func TestConfigureCapsAtTotalVertices(t *testing.T) {
	c := controller()
	n := c.Configure([]MonitorRegister{{StartAddr: 0, TypeSize: 4, Stride: 4, Count: 10}}, 10)
	if n != 10 {
		t.Fatalf("resident %d, want 10 (all vertices fit)", n)
	}
}

func TestConfigureEmpty(t *testing.T) {
	c := controller()
	if n := c.Configure(nil, 100); n != 0 {
		t.Fatalf("no monitors -> no residents, got %d", n)
	}
}

func TestMatch(t *testing.T) {
	c := controller()
	c.Configure([]MonitorRegister{{StartAddr: 0x1000, TypeSize: 8, Stride: 8, Count: 4000}}, 4000)
	resident := uint32(c.ResidentCount())
	if resident >= 4000 {
		t.Fatalf("all %d vertices resident; the test needs a non-resident one", resident)
	}
	v, ok := c.Match(0x1000 + 8*memsys.Addr(resident-1))
	if !ok || v != resident-1 {
		t.Fatalf("last resident should match: %d %v", v, ok)
	}
	if _, ok := c.Match(0x1000 + 8*memsys.Addr(resident)); ok {
		t.Fatal("first non-resident vertex should not be resident")
	}
	if _, ok := c.Match(0x1000 + 8*4000); ok {
		t.Fatal("unmonitored address should not match")
	}
}

func TestPartitionChunked(t *testing.T) {
	c := controller() // chunk 8, 16 slices
	// Vertices 0-7 -> slice 0, 8-15 -> slice 1, ..., 128-135 -> slice 0.
	cases := []struct {
		v    uint32
		home int
	}{{0, 0}, {7, 0}, {8, 1}, {127, 15}, {128, 0}, {136, 1}}
	for _, tc := range cases {
		if got := c.Home(tc.v); got != tc.home {
			t.Fatalf("Home(%d) = %d, want %d", tc.v, got, tc.home)
		}
	}
}

func TestIndexWithinSlice(t *testing.T) {
	c := controller() // chunk 8, 16 slices
	// Slice 0 holds vertices 0-7 (lines 0-7), 128-135 (lines 8-15), ...
	cases := []struct {
		v   uint32
		idx int
	}{{0, 0}, {7, 7}, {128, 8}, {135, 15}, {256, 16}}
	for _, tc := range cases {
		if got := c.Index(tc.v); got != tc.idx {
			t.Fatalf("Index(%d) = %d, want %d", tc.v, got, tc.idx)
		}
	}
}

func TestPartitionIndexBijection(t *testing.T) {
	// Property: over the first rounds full passes of the interleaving,
	// (Home, Index) maps the vertices one-to-one onto every slice's first
	// chunk*rounds lines.
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		chunk := 1 + r.Intn(16)
		rounds := 1 + r.Intn(4)
		c := NewController(Config{BytesPerCore: 4096, ChunkSize: chunk})
		seen := map[[2]int]bool{}
		for v := uint32(0); v < uint32(chunk*slices*rounds); v++ {
			key := [2]int{c.Home(v), c.Index(v)}
			if seen[key] || key[0] < 0 || key[0] >= slices || key[1] < 0 || key[1] >= chunk*rounds {
				return false
			}
			seen[key] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSrcBufferHitsAfterInstall(t *testing.T) {
	c := controller()
	if c.SrcBufLookup(0, 42) {
		t.Fatal("cold buffer should miss")
	}
	if !c.SrcBufLookup(0, 42) {
		t.Fatal("installed entry should hit")
	}
	// Other core's buffer is independent.
	if c.SrcBufLookup(1, 42) {
		t.Fatal("core 1's buffer should be cold")
	}
	if c.SrcBufHits.Total != 3 || c.SrcBufHits.Hits != 1 {
		t.Fatalf("src buf stats %d/%d", c.SrcBufHits.Hits, c.SrcBufHits.Total)
	}
}

func TestSrcBufferFIFOEviction(t *testing.T) {
	c := controller()
	for v := uint32(0); v < srcBufEntries; v++ {
		c.SrcBufLookup(0, v)
	}
	c.SrcBufLookup(0, 999) // evicts vertex 0
	if c.SrcBufLookup(0, 0) {
		t.Fatal("vertex 0 should have been evicted FIFO")
	}
	// That miss reinstalled 0 in the next slot, evicting vertex 1.
	if c.SrcBufLookup(0, 1) {
		t.Fatal("vertex 1 should have been evicted FIFO")
	}
	if !c.SrcBufLookup(0, 999) || !c.SrcBufLookup(0, srcBufEntries-1) {
		t.Fatal("recently installed entries should survive")
	}
}

func TestInvalidateSrcBufs(t *testing.T) {
	c := controller()
	c.SrcBufLookup(0, 7)
	c.SrcBufLookup(1, 7)
	c.InvalidateSrcBufs()
	if c.SrcBufLookup(0, 7) || c.SrcBufLookup(1, 7) {
		t.Fatal("iteration boundary must clear all buffers")
	}
}

func TestAccessCounters(t *testing.T) {
	c := controller()
	c.RecordAccess(true)
	c.RecordAccess(true)
	c.RecordAccess(false)
	if c.LocalAccesses.Value() != 2 || c.RemoteAccesses.Value() != 1 {
		t.Fatal("access counters wrong")
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewController(Config{BytesPerCore: 0, ChunkSize: 1})
}

// Index implements the index unit: the line number of vertex inside its
// home slice.
func (c *Controller) Index(vertex uint32) int {
	chunk := uint64(c.cfg.ChunkSize)
	v := uint64(vertex)
	round := v / (chunk * slices)
	return int(round*chunk + v%chunk)
}
