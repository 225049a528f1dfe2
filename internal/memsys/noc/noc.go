// Package noc models the on-chip crossbar interconnect of the testbed
// (Table III: crossbar, 128-bit bus width). It tracks message latency
// (base traversal + serialization + output-port queueing) and — centrally
// for the paper's Figure 17 — the total on-chip traffic volume in bytes,
// distinguishing cache-line-sized transfers from OMEGA's word-sized
// scratchpad packets (§V.E).
package noc

import (
	"fmt"
	"math/bits"

	"omega/internal/faults"
	"omega/internal/memsys"
	"omega/internal/stats"
)

// Config sizes the crossbar.
type Config struct {
	// Ports is the number of endpoints (cores/L2 banks pairs).
	Ports int
	// BaseLatency is the unloaded one-way traversal latency; the paper
	// measures an average of 17 cycles for remote scratchpad access,
	// which includes request+response, so one way defaults to 8 with a
	// 1-cycle router overhead folded in.
	BaseLatency memsys.Cycles
	// BusBytes is the link width per cycle (128 bits = 16 B).
	BusBytes int
	// CtrlBytes is the size of an address/command header attached to
	// line-sized and control messages. Word-class messages (OMEGA's
	// scratchpad packets) are self-contained 64-bit packets (§V.E) and
	// carry no extra header.
	CtrlBytes int
	// MaxQueueCycles bounds modeled output-port queueing per message.
	MaxQueueCycles memsys.Cycles
}

// DefaultConfig returns the Table III crossbar.
func DefaultConfig(ports int) Config {
	return Config{Ports: ports, BaseLatency: 8, BusBytes: 16, CtrlBytes: 8, MaxQueueCycles: 64}
}

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
	cfg     Config
	ports   []memsys.Queue
	traffic [numClasses]classTraffic
	// busShift is log2(BusBytes): the serialization division as a shift.
	busShift uint
	// faults, when attached, drops/delays non-local messages with
	// bounded retransmission (nil = no injection, the default).
	faults    *faults.Injector
	QueueWait stats.Counter
	// RetryWait accumulates cycles added by injected drop/retry handling.
	RetryWait stats.Counter
}

// New builds the crossbar. BusBytes must be a power of two.
func New(cfg Config) *Crossbar {
	if cfg.Ports <= 0 || cfg.BusBytes <= 0 || cfg.BusBytes&(cfg.BusBytes-1) != 0 {
		panic(fmt.Sprintf("noc: bad config %+v", cfg))
	}
	return &Crossbar{
		cfg:      cfg,
		ports:    make([]memsys.Queue, cfg.Ports),
		busShift: uint(bits.TrailingZeros(uint(cfg.BusBytes))),
	}
}

// Config returns the configuration.
func (x *Crossbar) Config() Config { return x.cfg }

// AttachFaults installs a fault injector; non-local sends then suffer
// seeded drop/retransmission events. nil detaches.
func (x *Crossbar) AttachFaults(in *faults.Injector) { x.faults = in }

// Send simulates one message of payloadBytes from src to dst starting at
// now, returning its delivery latency. A control header of CtrlBytes is
// charged on top of the payload. src == dst models a local hop and is
// free of traversal latency but still counts traffic when count is set.
// The body is straight-line: one unsigned range check, one branch for the
// word-packet sizing, fused per-class traffic accounting, and a shift for
// the flit count.
func (x *Crossbar) Send(now memsys.Cycles, src, dst int, payloadBytes int, class MsgClass) memsys.Cycles {
	if uint(src) >= uint(x.cfg.Ports) || uint(dst) >= uint(x.cfg.Ports) {
		panic(fmt.Sprintf("noc: port out of range src=%d dst=%d", src, dst))
	}
	total := payloadBytes + x.cfg.CtrlBytes
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
	// Serialization: flits of BusBytes per cycle, at least 1.
	flits := memsys.Cycles((total + x.cfg.BusBytes - 1) >> x.busShift)
	wait := x.ports[dst].Enqueue(now, flits)
	if x.cfg.MaxQueueCycles > 0 && wait > x.cfg.MaxQueueCycles {
		wait = x.cfg.MaxQueueCycles
	}
	x.QueueWait.Add(uint64(wait))
	lat := wait + x.cfg.BaseLatency + flits
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

// TotalBytes returns all on-chip traffic in bytes.
func (x *Crossbar) TotalBytes() uint64 {
	var t uint64
	for i := range x.traffic {
		t += x.traffic[i].bytes
	}
	return t
}

// BytesByClass returns traffic for one class.
func (x *Crossbar) BytesByClass(c MsgClass) uint64 { return x.traffic[c].bytes }

// MessagesByClass returns the message count for one class.
func (x *Crossbar) MessagesByClass(c MsgClass) uint64 { return x.traffic[c].msgs }
