// Package dram models the off-chip memory of the testbed: 4 DDR3-1600
// channels at 12 GB/s each (Table III), with per-bank open rows so the
// open-page / row-buffer behaviour the paper discusses in §IX is visible in
// the latency distribution, and a busy-until service model that produces
// bandwidth-limited queueing under load.
package dram

import (
	"fmt"
	"math/bits"

	"omega/internal/faults"
	"omega/internal/memsys"
	"omega/internal/stats"
)

// Config sizes the DRAM subsystem. Defaults (via DefaultConfig) match the
// paper's testbed at a 2 GHz core clock.
type Config struct {
	Channels     int
	BanksPerChan int
	// RowBytes is the row-buffer (page) size per bank.
	RowBytes int
	// RowHitCycles / RowMissCycles are access latencies for open-row hits
	// and row conflicts (precharge+activate+access).
	RowHitCycles  memsys.Cycles
	RowMissCycles memsys.Cycles
	// ServiceCyclesPerLine is the channel occupancy transferring one 64 B
	// line: at 12 GB/s and 2 GHz, 64 B take 64/12e9*2e9 ≈ 10.7 cycles.
	ServiceCyclesPerLine memsys.Cycles
	// ClosePage, when set, closes the row after every access (the paper's
	// §IX hybrid-policy discussion for low-locality vertex data).
	ClosePage bool
	// Hybrid enables the §IX per-access policy: accesses flagged as
	// low-locality (random vertex data) close their row, everything else
	// (edge streams) keeps rows open.
	Hybrid bool
	// MaxQueue bounds the modeled per-channel queue depth: an access
	// never waits more than MaxQueue service slots (a real controller
	// back-pressures instead of queueing unboundedly, and the bound also
	// keeps the busy-until approximation stable under core clock skew).
	MaxQueue int
}

// DefaultConfig returns the Table III DRAM configuration.
func DefaultConfig() Config {
	return Config{
		Channels:             4,
		BanksPerChan:         8,
		RowBytes:             2048,
		RowHitCycles:         80,
		RowMissCycles:        140,
		ServiceCyclesPerLine: 11,
		MaxQueue:             32,
	}
}

// DRAM is the off-chip memory model. Not safe for concurrent use.
type DRAM struct {
	cfg Config
	// queues model per-channel bandwidth contention.
	queues []memsys.Queue
	// openRow per (channel, bank), flattened channel-major; ^0 means
	// closed.
	openRow []uint64

	// rowShift/chMask/bankMask/bankShift strength-reduce the per-access
	// channel/bank/row divisions to shift/mask when the geometry is all
	// powers of two (pow2 false otherwise — sensitivity sweeps use odd
	// channel counts, so the division path stays live). maxWait folds the
	// MaxQueue bound into one precomputed compare (^0 = unbounded).
	pow2      bool
	chMask    uint64
	rowShift  uint
	bankMask  uint64
	bankShift uint
	maxWait   memsys.Cycles

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

// New builds the DRAM model.
func New(cfg Config) *DRAM {
	if cfg.Channels <= 0 || cfg.BanksPerChan <= 0 || cfg.RowBytes <= 0 {
		panic(fmt.Sprintf("dram: bad config %+v", cfg))
	}
	d := &DRAM{
		cfg:     cfg,
		queues:  make([]memsys.Queue, cfg.Channels),
		openRow: make([]uint64, cfg.Channels*cfg.BanksPerChan),
		maxWait: ^memsys.Cycles(0),
	}
	for i := range d.openRow {
		d.openRow[i] = ^uint64(0)
	}
	if cfg.MaxQueue > 0 {
		d.maxWait = memsys.Cycles(cfg.MaxQueue) * cfg.ServiceCyclesPerLine
	}
	pow2 := func(n int) bool { return n > 0 && n&(n-1) == 0 }
	if pow2(cfg.Channels) && pow2(cfg.BanksPerChan) && pow2(cfg.RowBytes) {
		d.pow2 = true
		d.chMask = uint64(cfg.Channels) - 1
		d.rowShift = uint(bits.TrailingZeros(uint(cfg.RowBytes)))
		d.bankMask = uint64(cfg.BanksPerChan) - 1
		d.bankShift = uint(bits.TrailingZeros(uint(cfg.BanksPerChan)))
	}
	return d
}

// Config returns the configuration.
func (d *DRAM) Config() Config { return d.cfg }

// AttachFaults installs a fault injector; DRAM read accesses then pass
// through its SECDED ECC model. nil detaches.
func (d *DRAM) AttachFaults(in *faults.Injector) { d.faults = in }

// Access simulates one line-sized read beginning at time now and returns
// its latency (queueing + device access, plus any injected ECC handling).
func (d *DRAM) Access(now memsys.Cycles, addr memsys.Addr) memsys.Cycles {
	return d.AccessHint(now, addr, false)
}

// Write simulates one line-sized writeback. Writes skip the ECC read
// model — bit-flips matter when data is read back, and the read path is
// where the injector charges them.
func (d *DRAM) Write(now memsys.Cycles, addr memsys.Addr) memsys.Cycles {
	return d.access(now, addr, false, false)
}

// AccessHint is Access with a locality hint: under the Hybrid policy,
// low-locality accesses close their row after use (§IX).
func (d *DRAM) AccessHint(now memsys.Cycles, addr memsys.Addr, lowLocality bool) memsys.Cycles {
	return d.access(now, addr, lowLocality, true)
}

// access is the shared device model behind reads and writebacks. The
// channel/bank/row decomposition, queue bound, and open-row update run as
// straight-line shift/mask arithmetic on the flattened row array for
// power-of-two geometries (the strength-reduced form of exactly the
// divisions below, so every index — and therefore every latency — is
// unchanged).
func (d *DRAM) access(now memsys.Cycles, addr memsys.Addr, lowLocality, read bool) memsys.Cycles {
	la := uint64(memsys.LineAddr(addr))
	var chIdx, slot, row uint64
	if d.pow2 {
		chIdx = (la / memsys.LineSize) & d.chMask
		rb := la >> d.rowShift
		slot = chIdx<<d.bankShift | (rb & d.bankMask)
		row = rb >> d.bankShift
	} else {
		chIdx = (la / memsys.LineSize) % uint64(d.cfg.Channels)
		bankIdx := (la / uint64(d.cfg.RowBytes)) % uint64(d.cfg.BanksPerChan)
		slot = chIdx*uint64(d.cfg.BanksPerChan) + bankIdx
		row = la / uint64(d.cfg.RowBytes) / uint64(d.cfg.BanksPerChan)
	}

	wait := d.queues[chIdx].Enqueue(now, d.cfg.ServiceCyclesPerLine)
	if wait > d.maxWait {
		wait = d.maxWait
	}
	d.QueueDelay.Add(uint64(wait))
	start := now + wait
	var dev memsys.Cycles
	open := &d.openRow[slot]
	if *open == row {
		dev = d.cfg.RowHitCycles
		d.RowHits.Observe(true)
	} else {
		dev = d.cfg.RowMissCycles
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

// PeakBytesPerCycle returns the aggregate channel bandwidth in bytes per
// core cycle.
func (d *DRAM) PeakBytesPerCycle() float64 {
	return float64(d.cfg.Channels) * memsys.LineSize / float64(d.cfg.ServiceCyclesPerLine)
}

// Utilization returns achieved bandwidth as a fraction of peak over an
// execution of elapsed cycles.
func (d *DRAM) Utilization(elapsed memsys.Cycles) float64 {
	if elapsed == 0 {
		return 0
	}
	achieved := float64(d.BytesMoved.Value()) / float64(elapsed)
	return achieved / d.PeakBytesPerCycle()
}
