// Package dram models the off-chip memory of the testbed: 4 DDR3-1600
// channels at 12 GB/s each (Table III), with per-bank open rows so the
// open-page / row-buffer behaviour the paper discusses in §IX is visible in
// the latency distribution, and a busy-until service model that produces
// bandwidth-limited queueing under load.
package dram

import (
	"omega/internal/faults"
	"omega/internal/memsys"
	"omega/internal/stats"
)

// The Table III DRAM at a 2 GHz core clock. The geometry is powers of
// two, so the address decomposition in access compiles to shifts and
// masks.
const (
	channels     = 4
	banksPerChan = 8
	// rowBytes is the row-buffer (page) size per bank.
	rowBytes = 2048
	// rowHitCycles / rowMissCycles are access latencies for open-row
	// hits and row conflicts (precharge+activate+access).
	rowHitCycles  memsys.Cycles = 80
	rowMissCycles memsys.Cycles = 140
	// lineService is the channel occupancy transferring one 64 B line:
	// at 12 GB/s and 2 GHz, 64 B take 64/12e9*2e9 ≈ 10.7 cycles.
	lineService memsys.Cycles = 11
	// queueDepth bounds the modeled per-channel queue: an access never
	// waits more than queueDepth service slots (a real controller
	// back-pressures instead of queueing unboundedly, and the bound also
	// keeps the busy-until approximation stable under core clock skew).
	queueDepth = 32
	maxWait    = queueDepth * lineService
	// peakBytesPerCycle is the aggregate channel bandwidth in bytes per
	// core cycle, rounded once to float64.
	peakBytesPerCycle = channels * memsys.LineSize / float64(lineService)
)

// Config is the page policy, the only DRAM setting experiments vary. The
// zero value is the Table III open-page policy.
type Config struct {
	// ClosePage, when set, closes the row after every access (the paper's
	// §IX hybrid-policy discussion for low-locality vertex data).
	ClosePage bool
	// Hybrid enables the §IX per-access policy: accesses flagged as
	// low-locality (random vertex data) close their row, everything else
	// (edge streams) keeps rows open.
	Hybrid bool
}

// DRAM is the off-chip memory model. Not safe for concurrent use.
type DRAM struct {
	cfg Config
	// queues model per-channel bandwidth contention.
	queues [channels]memsys.Queue
	// openRow per (channel, bank), flattened channel-major; ^0 means
	// closed.
	openRow [channels * banksPerChan]uint64

	// faults, when attached, injects read bit-flips behind a SECDED ECC
	// model (nil = no injection, the default).
	faults *faults.Injector

	// Stats
	Accesses   stats.Counter
	RowHits    stats.Ratio
	BytesMoved stats.Counter
	// QueueDelay accumulates cycles spent waiting for a busy channel.
	QueueDelay stats.Counter
	// ECCPenalty accumulates latency added by injected ECC events.
	ECCPenalty stats.Counter
	// lastBusy tracks the furthest completion time, for utilization.
	lastBusy memsys.Cycles
}

// New builds the DRAM model with every row closed.
func New(cfg Config) *DRAM {
	d := &DRAM{cfg: cfg}
	for i := range d.openRow {
		d.openRow[i] = ^uint64(0)
	}
	return d
}

// AttachFaults installs a fault injector; DRAM read accesses then pass
// through its SECDED ECC model. nil detaches.
func (d *DRAM) AttachFaults(in *faults.Injector) { d.faults = in }

// Write simulates one line-sized writeback. Writes skip the ECC read
// model — bit-flips matter when data is read back, and the read path is
// where the injector charges them.
func (d *DRAM) Write(now memsys.Cycles, addr memsys.Addr) memsys.Cycles {
	return d.access(now, addr, false, false)
}

// AccessHint simulates one line-sized read beginning at time now and
// returns its latency (queueing + device access, plus any injected ECC
// handling). Under the Hybrid policy, a lowLocality read closes its row
// after use (§IX).
func (d *DRAM) AccessHint(now memsys.Cycles, addr memsys.Addr, lowLocality bool) memsys.Cycles {
	return d.access(now, addr, lowLocality, true)
}

// access is the shared device model behind reads and writebacks. Lines
// interleave across channels and rows across banks; the decomposition,
// queue bound, and open-row update run as straight-line arithmetic on the
// flattened row array.
func (d *DRAM) access(now memsys.Cycles, addr memsys.Addr, lowLocality, read bool) memsys.Cycles {
	la := uint64(memsys.LineAddr(addr))
	chIdx := la / memsys.LineSize % channels
	rb := la / rowBytes
	slot := chIdx*banksPerChan + rb%banksPerChan
	row := rb / banksPerChan

	wait := min(d.queues[chIdx].Enqueue(now, lineService), maxWait)
	d.QueueDelay.Add(uint64(wait))
	start := now + wait
	var dev memsys.Cycles
	open := &d.openRow[slot]
	if *open == row {
		dev = rowHitCycles
		d.RowHits.Observe(true)
	} else {
		dev = rowMissCycles
		d.RowHits.Observe(false)
	}
	if d.cfg.ClosePage || (d.cfg.Hybrid && lowLocality) {
		*open = ^uint64(0)
	} else {
		*open = row
	}
	if read && d.faults != nil {
		if extra := d.faults.DRAMRead(dev); extra > 0 {
			// Single-bit: inline correction. Double-bit: detected, the
			// device access replays (extra includes it).
			dev += extra
			d.ECCPenalty.Add(uint64(extra))
		}
	}
	done := start + dev
	if done > d.lastBusy {
		d.lastBusy = done
	}
	d.Accesses.Inc()
	d.BytesMoved.Add(memsys.LineSize)
	return done - now
}

// Utilization returns achieved bandwidth as a fraction of peak over an
// execution of elapsed cycles.
func (d *DRAM) Utilization(elapsed memsys.Cycles) float64 {
	if elapsed == 0 {
		return 0
	}
	achieved := float64(d.BytesMoved.Value()) / float64(elapsed)
	return achieved / peakBytesPerCycle
}
