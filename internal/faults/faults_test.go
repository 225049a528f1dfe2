package faults

import (
	"testing"

	"omega/internal/memsys"
)

func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	if extra := in.DRAMRead(100); extra != 0 {
		t.Fatalf("nil DRAMRead = %d", extra)
	}
	if extra, resends := in.NoCSend(4, 64); extra != 0 || resends != 0 {
		t.Fatalf("nil NoCSend = %d,%d", extra, resends)
	}
	if trip, pen := in.SPParity(); trip || pen != 0 {
		t.Fatalf("nil SPParity = %v,%d", trip, pen)
	}
	in.NoteSPDegraded()
	if ev := in.Events(); ev != (Events{}) {
		t.Fatalf("nil Events = %+v", ev)
	}
}

func TestZeroRatesDrawNothing(t *testing.T) {
	in := New(Config{Seed: 7})
	for i := 0; i < 1000; i++ {
		if extra := in.DRAMRead(100); extra != 0 {
			t.Fatalf("zero-rate DRAMRead = %d", extra)
		}
		if extra, resends := in.NoCSend(4, 64); extra != 0 || resends != 0 {
			t.Fatalf("zero-rate NoCSend = %d,%d", extra, resends)
		}
		if trip, _ := in.SPParity(); trip {
			t.Fatal("zero-rate SPParity tripped")
		}
	}
	if ev := in.Events(); ev != (Events{}) {
		t.Fatalf("zero-rate events = %+v", ev)
	}
}

func TestDeterministicStreams(t *testing.T) {
	cfg := Config{Seed: 99, DRAMFlipRate: 0.05, NoCDropRate: 0.05, SPParityRate: 0.05}
	run := func() ([]memsys.Cycles, Events) {
		in := New(cfg)
		var lats []memsys.Cycles
		for i := 0; i < 5000; i++ {
			lats = append(lats, in.DRAMRead(100))
			e, _ := in.NoCSend(4, 64)
			lats = append(lats, e)
			_, p := in.SPParity()
			lats = append(lats, p)
		}
		return lats, in.Events()
	}
	a, evA := run()
	b, evB := run()
	if evA != evB {
		t.Fatalf("events diverged: %+v vs %+v", evA, evB)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("latency stream diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	if evA.Total() == 0 {
		t.Fatal("expected some fault events at 5% rates")
	}
}

func TestStreamsAreIndependent(t *testing.T) {
	// Draining one path's stream must not change another path's events.
	cfg := Config{Seed: 3, DRAMFlipRate: 0.1, NoCDropRate: 0.1}
	dramOnly := func(alsoNoC bool) uint64 {
		in := New(cfg)
		for i := 0; i < 2000; i++ {
			in.DRAMRead(100)
			if alsoNoC {
				in.NoCSend(4, 64)
			}
		}
		return in.Events().DRAMCorrected + in.Events().DRAMDetected + in.Events().DRAMSilent
	}
	if a, b := dramOnly(false), dramOnly(true); a != b {
		t.Fatalf("NoC draws perturbed DRAM stream: %d vs %d", a, b)
	}
}

func TestECCOutcomeMix(t *testing.T) {
	in := New(Config{Seed: 11, DRAMFlipRate: 1.0})
	for i := 0; i < 10000; i++ {
		in.DRAMRead(100)
	}
	ev := in.Events()
	total := ev.DRAMCorrected + ev.DRAMDetected + ev.DRAMSilent
	if total != 10000 {
		t.Fatalf("rate-1.0 should fault every read: %d", total)
	}
	// Defaults: 89% corrected, 10% detected, 1% silent, ±3 points.
	frac := func(v uint64) float64 { return float64(v) / float64(total) }
	if f := frac(ev.DRAMCorrected); f < 0.85 || f > 0.93 {
		t.Fatalf("corrected fraction %.3f out of band", f)
	}
	if f := frac(ev.DRAMDetected); f < 0.07 || f > 0.13 {
		t.Fatalf("detected fraction %.3f out of band", f)
	}
	if f := frac(ev.DRAMSilent); f > 0.03 {
		t.Fatalf("silent fraction %.3f out of band", f)
	}
	if ev.DRAMRetryCycles == 0 {
		t.Fatal("retry cycles not accumulated")
	}
}

func TestNoCRetryBackoffAndBytes(t *testing.T) {
	// Rate 1.0: every message drops and every retry drops — each message
	// exhausts its budget with full exponential backoff.
	in := New(Config{Seed: 5, NoCDropRate: 1.0})
	const flits, bytes = 4, 64
	extra, resends := in.NoCSend(flits, bytes)
	if resends != nocMaxRetries {
		t.Fatalf("resends = %d, want %d", resends, nocMaxRetries)
	}
	// Backoff 16 + 32 + 64 plus flits per resend.
	want := memsys.Cycles(16+32+64) + memsys.Cycles(resends)*flits
	if extra != want {
		t.Fatalf("extra = %d, want %d", extra, want)
	}
	ev := in.Events()
	if ev.NoCDropped != 1 || ev.NoCGaveUp != 1 {
		t.Fatalf("events = %+v", ev)
	}
	if ev.NoCRetransmitBytes != uint64(resends*bytes) {
		t.Fatalf("retransmit bytes = %d, want %d", ev.NoCRetransmitBytes, resends*bytes)
	}
}

func TestSPParityAndDegradation(t *testing.T) {
	in := New(Config{Seed: 2, SPParityRate: 1.0})
	trip, pen := in.SPParity()
	if !trip || pen != spDetectCycles {
		t.Fatalf("trip=%v pen=%d", trip, pen)
	}
	in.NoteSPDegraded()
	ev := in.Events()
	if ev.SPParityErrors != 1 || ev.SPDegradedVertices != 1 {
		t.Fatalf("events = %+v", ev)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{DRAMFlipRate: -0.1},
		{DRAMFlipRate: 1.5},
		{NoCDropRate: 2},
		{SPParityRate: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: invalid config passed: %+v", i, c)
		}
	}
	if err := (Config{Seed: 1, DRAMFlipRate: 0.5}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}
