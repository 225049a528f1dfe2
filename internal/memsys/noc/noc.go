// Package noc models the on-chip crossbar interconnect of the testbed
// (Table III: crossbar, 128-bit bus width). It tracks message latency
// (base traversal + serialization + output-port queueing) and — centrally
// for the paper's Figure 17 — the total on-chip traffic volume in bytes,
// distinguishing cache-line-sized transfers from OMEGA's word-sized
// scratchpad packets (§V.E).
package noc

import (
	"fmt"

	"omega/internal/faults"
	"omega/internal/memsys"
	"omega/internal/stats"
)

// The Table III crossbar: one port per core (core/L2-bank pair).
const (
	// baseLatency is the unloaded one-way traversal latency; the paper
	// measures an average of 17 cycles for remote scratchpad access,
	// which includes request+response, so one way is 8 with a 1-cycle
	// router overhead folded in.
	baseLatency memsys.Cycles = 8
	// busBytes is the link width per cycle (128 bits).
	busBytes = 16
	// headerBytes is the address/command header attached to line-sized
	// and control messages. Word-class messages (OMEGA's scratchpad
	// packets) are self-contained 64-bit packets (§V.E) and carry no
	// extra header.
	headerBytes = 8
	// maxQueueCycles bounds modeled output-port queueing per message.
	maxQueueCycles memsys.Cycles = 64
)

// MsgClass labels traffic for the Figure 17 breakdown.
type MsgClass uint8

const (
	// ClassLine is a cache-line data transfer (fill, writeback, c2c).
	ClassLine MsgClass = iota
	// ClassWord is an OMEGA word-granularity scratchpad packet.
	ClassWord
	// ClassCtrl is a control-only message (request, invalidation, ack).
	ClassCtrl
	numClasses
)

// String names the class.
func (c MsgClass) String() string {
	switch c {
	case ClassLine:
		return "line"
	case ClassWord:
		return "word"
	case ClassCtrl:
		return "ctrl"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// classTraffic packs one message class's byte and message counts into
// adjacent words, so the two per-send counter bumps touch one record
// instead of two counter arrays.
type classTraffic struct {
	bytes, msgs uint64
}

// Crossbar is the interconnect model. Not safe for concurrent use.
type Crossbar struct {
	ports   [memsys.NumCores]memsys.Queue
	traffic [numClasses]classTraffic
	// faults, when attached, drops/delays non-local messages with
	// bounded retransmission (nil = no injection, the default).
	faults    *faults.Injector
	QueueWait stats.Counter
	// RetryWait accumulates cycles added by injected drop/retry handling.
	RetryWait stats.Counter
}

// New builds the crossbar.
func New() *Crossbar { return &Crossbar{} }

// AttachFaults installs a fault injector; non-local sends then suffer
// seeded drop/retransmission events. nil detaches.
func (x *Crossbar) AttachFaults(in *faults.Injector) { x.faults = in }

// Send simulates one message of payloadBytes from src to dst starting at
// now, returning its delivery latency. A control header of headerBytes is
// charged on top of the payload. src == dst models a local hop and is
// free of traversal latency but still counts traffic when count is set.
// The body is straight-line: one unsigned range check, one branch for the
// word-packet sizing, fused per-class traffic accounting, and a shift for
// the flit count (busBytes is a power of two).
func (x *Crossbar) Send(now memsys.Cycles, src, dst int, payloadBytes int, class MsgClass) memsys.Cycles {
	if uint(src) >= memsys.NumCores || uint(dst) >= memsys.NumCores {
		panic(fmt.Sprintf("noc: port out of range src=%d dst=%d", src, dst))
	}
	total := payloadBytes + headerBytes
	if class == ClassWord {
		// OMEGA word packets are self-contained (≤64-bit, §V.E): the
		// payload already includes command/vertex bits.
		total = payloadBytes
		if total <= 0 {
			total = 8
		}
	}
	tr := &x.traffic[class]
	tr.bytes += uint64(total)
	tr.msgs++
	if src == dst {
		return 1
	}
	// Serialization: flits of busBytes per cycle, at least 1.
	flits := memsys.Cycles(uint(total+busBytes-1) / busBytes)
	wait := min(x.ports[dst].Enqueue(now, flits), maxQueueCycles)
	x.QueueWait.Add(uint64(wait))
	lat := wait + baseLatency + flits
	if x.faults != nil {
		if extra, resends := x.faults.NoCSend(flits, total); resends > 0 {
			// Retransmissions are real traffic: count their bytes and
			// messages, and delay delivery by backoff + re-serialization.
			tr.bytes += uint64(resends * total)
			tr.msgs += uint64(resends)
			x.RetryWait.Add(uint64(extra))
			lat += extra
		}
	}
	return lat
}

// RoundTrip simulates a request to dst followed by a response carrying
// respBytes back to src; returns total latency.
func (x *Crossbar) RoundTrip(now memsys.Cycles, src, dst int, reqBytes, respBytes int, class MsgClass) memsys.Cycles {
	l1 := x.Send(now, src, dst, reqBytes, ClassCtrl)
	l2 := x.Send(now+l1, dst, src, respBytes, class)
	return l1 + l2
}

// BytesByClass returns traffic for one class.
func (x *Crossbar) BytesByClass(c MsgClass) uint64 { return x.traffic[c].bytes }

// MessagesByClass returns the message count for one class.
func (x *Crossbar) MessagesByClass(c MsgClass) uint64 { return x.traffic[c].msgs }
