package noc

import (
	"testing"

	"omega/internal/memsys"
)

func xbar() *Crossbar { return New() }

func TestBaseLatency(t *testing.T) {
	x := xbar()
	lat := x.Send(0, 0, 1, 0, ClassCtrl)
	// Base latency plus the header's flits (one bus beat).
	flits := memsys.Cycles((headerBytes + busBytes - 1) / busBytes)
	if want := baseLatency + flits; lat != want {
		t.Fatalf("ctrl latency %d, want %d", lat, want)
	}
}

func TestLineSerialization(t *testing.T) {
	x := xbar()
	lat := x.Send(0, 0, 1, memsys.LineSize, ClassLine)
	// Line plus header, rounded up to whole flits, plus base latency.
	flits := memsys.Cycles((memsys.LineSize + headerBytes + busBytes - 1) / busBytes)
	if want := baseLatency + flits; lat != want {
		t.Fatalf("line latency %d, want %d", lat, want)
	}
}

func TestWordPacketIsHeaderless(t *testing.T) {
	x := xbar()
	x.Send(0, 0, 1, 8, ClassWord)
	if got := x.BytesByClass(ClassWord); got != 8 {
		t.Fatalf("word packet counted %d bytes, want 8 (self-contained, §V.E)", got)
	}
	x.Send(0, 0, 1, 0, ClassWord)
	if got := x.BytesByClass(ClassWord); got != 16 {
		t.Fatalf("zero-payload word should default to 8 bytes, total %d", got)
	}
}

func TestLocalHopCheapButCounted(t *testing.T) {
	x := xbar()
	lat := x.Send(0, 3, 3, memsys.LineSize, ClassLine)
	if lat != 1 {
		t.Fatalf("local hop latency %d, want 1", lat)
	}
	if x.BytesByClass(ClassLine) == 0 {
		t.Fatal("local transfers still count as traffic")
	}
}

func TestTrafficByClass(t *testing.T) {
	x := xbar()
	x.Send(0, 0, 1, memsys.LineSize, ClassLine)
	x.Send(0, 1, 2, 0, ClassCtrl)
	x.Send(0, 2, 3, 8, ClassWord)
	if x.BytesByClass(ClassLine) != 72 {
		t.Fatalf("line bytes %d", x.BytesByClass(ClassLine))
	}
	if x.BytesByClass(ClassCtrl) != 8 {
		t.Fatalf("ctrl bytes %d", x.BytesByClass(ClassCtrl))
	}
	if x.BytesByClass(ClassWord) != 8 {
		t.Fatalf("word bytes %d", x.BytesByClass(ClassWord))
	}
	if x.MessagesByClass(ClassLine) != 1 || x.MessagesByClass(ClassCtrl) != 1 {
		t.Fatal("message counts wrong")
	}
}

func TestHotPortContention(t *testing.T) {
	x := xbar()
	var total memsys.Cycles
	var now memsys.Cycles
	// Hammer port 0 with line transfers every cycle: 5 flits each, 1-cycle
	// spacing -> 5x oversubscribed.
	for i := 0; i < 20000; i++ {
		total += x.Send(now, 1+i%15, 0, memsys.LineSize, ClassLine)
		now++
	}
	avg := float64(total) / 20000
	if avg < 20 {
		t.Fatalf("oversubscribed port average latency %.1f too low", avg)
	}
	if x.QueueWait.Value() == 0 {
		t.Fatal("queue wait should accumulate")
	}
}

func TestIdlePortsFast(t *testing.T) {
	x := xbar()
	var now memsys.Cycles
	for i := 0; i < 1000; i++ {
		lat := x.Send(now, 0, 1+i%15, 0, ClassCtrl)
		if lat > 12 {
			t.Fatalf("idle network latency %d", lat)
		}
		now += 100
	}
}

func TestRoundTrip(t *testing.T) {
	x := xbar()
	lat := x.RoundTrip(0, 0, 5, 0, 8, ClassWord)
	// req ctrl: 8+1=9; resp word 8B: 8+1=9 -> 18. This is close to the
	// paper's measured 17-cycle average remote access.
	if lat != 18 {
		t.Fatalf("round trip %d, want 18", lat)
	}
}

func TestPortRangePanics(t *testing.T) {
	x := xbar()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	x.Send(0, 0, 99, 0, ClassCtrl)
}

func TestClassStrings(t *testing.T) {
	if ClassLine.String() != "line" || ClassWord.String() != "word" || ClassCtrl.String() != "ctrl" {
		t.Fatal("class names wrong")
	}
	if MsgClass(9).String() == "" {
		t.Fatal("unknown class should render")
	}
}
