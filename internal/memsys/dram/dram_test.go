package dram

import (
	"testing"

	"omega/internal/memsys"
	"omega/internal/stats"
)

func TestRowBufferHit(t *testing.T) {
	d := New(Config{})
	l1 := d.AccessHint(0, 0, false)
	l2 := d.AccessHint(10000, 0, false) // same line -> same row, open
	if l2 >= l1 {
		t.Fatalf("open-row access (%d) should be faster than cold (%d)", l2, l1)
	}
	if d.RowHits.Hits != 1 || d.RowHits.Total != 2 {
		t.Fatalf("row hits %d/%d", d.RowHits.Hits, d.RowHits.Total)
	}
}

func TestRowConflict(t *testing.T) {
	d := New(Config{})
	d.AccessHint(0, 0, false)
	// Same channel and bank, different row: channels interleave by line,
	// banks by rowBytes. Stride of channels*banks*rowBytes keeps channel
	// and bank while changing the row.
	stride := memsys.Addr(channels * banksPerChan * rowBytes)
	d.AccessHint(100000, stride, false)
	if d.RowHits.Hits != 0 {
		t.Fatal("row conflict should not count as hit")
	}
}

func TestClosePagePolicy(t *testing.T) {
	d := New(Config{ClosePage: true})
	d.AccessHint(0, 0, false)
	d.AccessHint(10000, 0, false) // same row, but page was closed
	if d.RowHits.Hits != 0 {
		t.Fatal("close-page policy should never produce row hits")
	}
}

func TestBytesAccounting(t *testing.T) {
	d := New(Config{})
	for i := 0; i < 10; i++ {
		d.AccessHint(0, memsys.Addr(i*64), false)
	}
	if d.BytesMoved.Value() != 10*memsys.LineSize {
		t.Fatalf("bytes %d", d.BytesMoved.Value())
	}
	if d.Accesses.Value() != 10 {
		t.Fatalf("accesses %d", d.Accesses.Value())
	}
}

func TestBandwidthSaturationQueues(t *testing.T) {
	d := New(Config{})
	r := stats.NewRand(3)
	var now memsys.Cycles
	for i := 0; i < 20000; i++ {
		d.AccessHint(now, memsys.Addr(r.Intn(1<<26))&^63, false)
		now++ // one line per cycle demanded: far beyond 4 channels' capacity
	}
	if d.QueueDelay.Value() == 0 {
		t.Fatal("oversubscribed DRAM should accumulate queue delay")
	}
}

func TestUtilization(t *testing.T) {
	d := New(Config{})
	for i := 0; i < 100; i++ {
		d.AccessHint(memsys.Cycles(i*100), memsys.Addr(i*64), false)
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
	// The compile-time constant must equal the run-time division it
	// replaced: channels·LineSize/lineService rounded once.
	ch, line, service := channels, memsys.LineSize, lineService
	want := float64(ch) * float64(line) / float64(service)
	if peakBytesPerCycle != want {
		t.Fatalf("peak %v, want %v", peakBytesPerCycle, want)
	}
}

func TestChannelsIndependent(t *testing.T) {
	d := New(Config{})
	// Saturate channel 0 only (addresses with line index ≡ 0 mod 4).
	var now memsys.Cycles
	for i := 0; i < 5000; i++ {
		d.AccessHint(now, memsys.Addr(i*4*64), false)
		now++
	}
	delayed := d.QueueDelay.Value()
	// A different channel must be cheap.
	lat := d.AccessHint(now, 64, false)
	if lat > 200 {
		t.Fatalf("other channel latency %d; channel isolation broken", lat)
	}
	_ = delayed
}

func TestLatencyComposition(t *testing.T) {
	d := New(Config{})
	lat := d.AccessHint(0, 0, false)
	if lat != rowMissCycles {
		t.Fatalf("cold idle access should cost rowMissCycles (%d), got %d",
			rowMissCycles, lat)
	}
}
