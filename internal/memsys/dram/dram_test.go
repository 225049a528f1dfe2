package dram

import (
	"testing"

	"omega/internal/memsys"
	"omega/internal/stats"
)

func TestRowBufferHit(t *testing.T) {
	d := New(DefaultConfig())
	l1 := d.Access(0, 0)
	l2 := d.Access(10000, 0) // same line -> same row, open
	if l2 >= l1 {
		t.Fatalf("open-row access (%d) should be faster than cold (%d)", l2, l1)
	}
	if d.RowHits.Hits != 1 || d.RowHits.Total != 2 {
		t.Fatalf("row hits %d/%d", d.RowHits.Hits, d.RowHits.Total)
	}
}

func TestRowConflict(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	d.Access(0, 0)
	// Same channel and bank, different row: channels interleave by line,
	// banks by RowBytes. Stride of channels*banks*rowBytes keeps channel
	// and bank while changing the row.
	stride := memsys.Addr(cfg.Channels * cfg.BanksPerChan * cfg.RowBytes)
	d.Access(100000, stride)
	if d.RowHits.Hits != 0 {
		t.Fatal("row conflict should not count as hit")
	}
}

func TestClosePagePolicy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ClosePage = true
	d := New(cfg)
	d.Access(0, 0)
	d.Access(10000, 0) // same row, but page was closed
	if d.RowHits.Hits != 0 {
		t.Fatal("close-page policy should never produce row hits")
	}
}

func TestBytesAccounting(t *testing.T) {
	d := New(DefaultConfig())
	for i := 0; i < 10; i++ {
		d.Access(0, memsys.Addr(i*64))
	}
	if d.BytesMoved.Value() != 10*memsys.LineSize {
		t.Fatalf("bytes %d", d.BytesMoved.Value())
	}
	if d.Accesses.Value() != 10 {
		t.Fatalf("accesses %d", d.Accesses.Value())
	}
}

func TestBandwidthSaturationQueues(t *testing.T) {
	d := New(DefaultConfig())
	r := stats.NewRand(3)
	var now memsys.Cycles
	for i := 0; i < 20000; i++ {
		d.Access(now, memsys.Addr(r.Intn(1<<26))&^63)
		now++ // one line per cycle demanded: far beyond 4 channels' capacity
	}
	if d.QueueDelay.Value() == 0 {
		t.Fatal("oversubscribed DRAM should accumulate queue delay")
	}
}

func TestUtilization(t *testing.T) {
	d := New(DefaultConfig())
	for i := 0; i < 100; i++ {
		d.Access(memsys.Cycles(i*100), memsys.Addr(i*64))
	}
	u := d.Utilization(10000)
	if u <= 0 || u > 1 {
		t.Fatalf("utilization %v out of range", u)
	}
	if d.Utilization(0) != 0 {
		t.Fatal("zero elapsed should report 0")
	}
}

func TestPeakBandwidth(t *testing.T) {
	d := New(DefaultConfig())
	want := float64(4*64) / 11
	if got := d.PeakBytesPerCycle(); got != want {
		t.Fatalf("peak %v, want %v", got, want)
	}
}

func TestChannelsIndependent(t *testing.T) {
	d := New(DefaultConfig())
	// Saturate channel 0 only (addresses with line index ≡ 0 mod 4).
	var now memsys.Cycles
	for i := 0; i < 5000; i++ {
		d.Access(now, memsys.Addr(i*4*64))
		now++
	}
	delayed := d.QueueDelay.Value()
	// A different channel must be cheap.
	lat := d.Access(now, 64)
	if lat > 200 {
		t.Fatalf("other channel latency %d; channel isolation broken", lat)
	}
	_ = delayed
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Channels: 0})
}

func TestLatencyComposition(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	lat := d.Access(0, 0)
	if lat != cfg.RowMissCycles {
		t.Fatalf("cold idle access should cost RowMissCycles (%d), got %d",
			cfg.RowMissCycles, lat)
	}
}
