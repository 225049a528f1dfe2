// Package faults is the deterministic, seed-driven fault injector of the
// reproduction's resilience study. A real deployment of a heterogeneous
// memory subsystem must survive soft errors in DRAM, dropped or delayed
// packets on the interconnect, and parity errors in the software-managed
// scratchpads; this package models all three as timing (never functional)
// events, so a run under injection produces the same algorithmic results,
// only slower — the graceful-degradation property the resilience
// experiments quantify.
//
// Three independent xorshift streams (one per memory path) are derived
// from a single seed, so the fault pattern on one path never perturbs the
// draws on another and the same (seed, rates) pair always reproduces the
// exact same event sequence — MachineStats under injection are
// byte-identical across runs.
//
// Fault models:
//
//   - DRAM read bit-flips behind a SECDED ECC code: single-bit flips are
//     corrected inline for a small latency penalty, double-bit flips are
//     detected and replayed (the full device access is charged again),
//     and a small tail of ≥3-bit flips escapes the code entirely and is
//     only counted (a real system would see silent data corruption; the
//     simulator keeps functional state correct and records the exposure).
//   - NoC message drops: a dropped message is retransmitted after
//     exponential backoff, bounded by MaxRetries; every retransmission
//     costs cycles (backoff + re-serialization) and bytes (the message
//     travels again). A message whose retries are exhausted is counted as
//     given-up and delivered anyway — the model never loses data, it
//     surfaces the event instead.
//   - Scratchpad parity errors: a parity hit on a scratchpad line marks
//     the backing vertex line bad; the access (and every later access to
//     that vertex) falls back to the cache hierarchy, so OMEGA keeps
//     running slower instead of wrong.
package faults

import (
	"fmt"

	"omega/internal/memsys"
	"omega/internal/stats"
)

// Config parameterizes the injector. The zero value disables every fault
// class; a Config with all rates zero is a no-op injector whose attached
// machine produces bit-identical statistics to an injector-free one.
type Config struct {
	// Seed drives the per-path random streams. Recovery re-executions
	// run attempt k on Seed+k, so retry k of seed s draws the same
	// streams as the first attempt of seed s+k: campaigns sweeping
	// consecutive seeds replay one seed's first attempt in another's
	// retry.
	Seed uint64

	// DRAMFlipRate is the probability that one DRAM line read suffers at
	// least one bit flip.
	DRAMFlipRate float64
	// DRAMDoubleBitFraction is the conditional probability that a flip
	// event is a double-bit (detected, replayed) rather than single-bit
	// (corrected) error. Default 0.10.
	DRAMDoubleBitFraction float64
	// DRAMSilentFraction is the conditional probability that a flip event
	// exceeds SECDED's detection capability (≥3 bits) and passes silently.
	// Default 0.01.
	DRAMSilentFraction float64
	// ECCCorrectCycles is the inline correction penalty. Default 2.
	ECCCorrectCycles memsys.Cycles
	// ECCRetryCycles is the detect-and-replay overhead charged on top of
	// the replayed device access. Default 8.
	ECCRetryCycles memsys.Cycles

	// NoCDropRate is the per-message (and per-retransmission) drop
	// probability for non-local NoC messages.
	NoCDropRate float64
	// NoCMaxRetries bounds retransmissions per message. Default 3.
	NoCMaxRetries int
	// NoCBackoffCycles is the first retransmission's backoff; it doubles
	// on every further attempt (exponential backoff). Default 16.
	NoCBackoffCycles memsys.Cycles

	// SPParityRate is the per-access probability that a scratchpad line
	// read trips parity, permanently degrading that vertex line to the
	// cache hierarchy.
	SPParityRate float64
	// SPDetectCycles is the parity-detection penalty charged to the
	// access that trips it. Default 4.
	SPDetectCycles memsys.Cycles

	// DirFlipRate is the per-access probability that one occupied
	// coherence-directory probe-table entry suffers a tag bit flip. The
	// directory's per-entry check byte catches the flip on the next scrub
	// pass (backward-shift-aware erase); with scrubbing disabled the
	// corrupt entry silently perturbs sharer tracking.
	DirFlipRate float64
	// DirScrubCycles is the latency charged to the access that triggers a
	// scrub repair. Default 6.
	DirScrubCycles memsys.Cycles
	// DisableDirScrub turns the scrubber off, leaving injected directory
	// corruption in place — the silent-data-corruption arm of the
	// directory site.
	DisableDirScrub bool

	// LineBufFlipRate is the per-arm probability that a core's same-line
	// memo is corrupted (one flipped latency bit) by the full probe that
	// just armed it. The modeled generation check refuses the corrupt
	// memo, so the next read of its line re-probes and counts a catch;
	// the core.Config knob DisableLineBufGenCheck models hardware without
	// the check, where the corrupt memo replays silently.
	LineBufFlipRate float64

	// ALUFlipRate is the per-offload probability that a PISC ALU result
	// suffers a transient single-bit flip. Unlike every other site this
	// one is functional: the corrupted value lands in the vtxProp array
	// and only end-to-end output validation can see it.
	ALUFlipRate float64
}

// Enabled reports whether any fault class has a non-zero rate.
func (c Config) Enabled() bool {
	return c.DRAMFlipRate > 0 || c.NoCDropRate > 0 || c.SPParityRate > 0 ||
		c.DirFlipRate > 0 || c.LineBufFlipRate > 0 || c.ALUFlipRate > 0
}

// Validate checks rates and bounds.
func (c Config) Validate() error {
	check := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("faults: %s %g outside [0,1]", name, v)
		}
		return nil
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"DRAMFlipRate", c.DRAMFlipRate},
		{"DRAMDoubleBitFraction", c.DRAMDoubleBitFraction},
		{"DRAMSilentFraction", c.DRAMSilentFraction},
		{"NoCDropRate", c.NoCDropRate},
		{"SPParityRate", c.SPParityRate},
		{"DirFlipRate", c.DirFlipRate},
		{"LineBufFlipRate", c.LineBufFlipRate},
		{"ALUFlipRate", c.ALUFlipRate},
	} {
		if err := check(p.name, p.v); err != nil {
			return err
		}
	}
	if c.DRAMDoubleBitFraction+c.DRAMSilentFraction > 1 {
		return fmt.Errorf("faults: double-bit + silent fractions exceed 1")
	}
	if c.NoCMaxRetries < 0 {
		return fmt.Errorf("faults: negative NoCMaxRetries")
	}
	return nil
}

// withDefaults fills zero-valued model parameters (rates stay as given).
func (c Config) withDefaults() Config {
	if c.DRAMDoubleBitFraction == 0 {
		c.DRAMDoubleBitFraction = 0.10
	}
	if c.DRAMSilentFraction == 0 {
		c.DRAMSilentFraction = 0.01
	}
	if c.ECCCorrectCycles == 0 {
		c.ECCCorrectCycles = 2
	}
	if c.ECCRetryCycles == 0 {
		c.ECCRetryCycles = 8
	}
	if c.NoCMaxRetries == 0 {
		c.NoCMaxRetries = 3
	}
	if c.NoCBackoffCycles == 0 {
		c.NoCBackoffCycles = 16
	}
	if c.SPDetectCycles == 0 {
		c.SPDetectCycles = 4
	}
	if c.DirScrubCycles == 0 {
		c.DirScrubCycles = 6
	}
	return c
}

// Events is the cumulative fault log of one injector — a plain struct of
// counters so it embeds directly into core.MachineStats and marshals to
// JSON. The zero value means "no faults occurred (or injection was off)".
type Events struct {
	// DRAM ECC outcomes per line read that suffered a flip.
	DRAMCorrected uint64 // single-bit, fixed inline
	DRAMDetected  uint64 // double-bit, detected and replayed
	DRAMSilent    uint64 // ≥3-bit, escaped SECDED (counted exposure)
	// DRAMRetryCycles is the total latency added by ECC handling.
	DRAMRetryCycles uint64

	// NoC drop handling.
	NoCDropped         uint64 // messages that suffered ≥1 drop
	NoCRetransmits     uint64 // total retransmissions sent
	NoCGaveUp          uint64 // messages whose retry budget was exhausted
	NoCRetryCycles     uint64 // backoff + re-serialization cycles added
	NoCRetransmitBytes uint64 // extra bytes moved by retransmissions

	// Scratchpad parity handling.
	SPParityErrors     uint64 // parity trips
	SPDegradedVertices uint64 // distinct vertex lines degraded to cache

	// Coherence-directory probe-table corruption.
	DirFlips        uint64 // injected entry tag flips
	DirScrubRepairs uint64 // corrupt entries erased by the scrubber

	// Line-buffer memo corruption.
	LineBufFlips      uint64 // injected memo corruptions
	LineBufGenCatches uint64 // corrupt memos rejected by generation checks

	// PISC ALU transients (functional — corrupts algorithm outputs).
	ALUFlips uint64
}

// Total returns the count of all fault events (not cycles/bytes).
func (e Events) Total() uint64 {
	return e.DRAMCorrected + e.DRAMDetected + e.DRAMSilent +
		e.NoCDropped + e.SPParityErrors +
		e.DirFlips + e.LineBufFlips + e.ALUFlips
}

// Detected returns the count of fault events the machine's checkers
// caught (corrected or surfaced): the campaign engine classifies a run
// with Detected > 0 and correct outputs as detected-corrected.
func (e Events) Detected() uint64 {
	return e.DRAMCorrected + e.DRAMDetected + e.NoCDropped +
		e.SPParityErrors + e.DirScrubRepairs + e.LineBufGenCatches
}

// Injector draws fault events for the three simulated memory paths. All
// methods are safe on a nil receiver (they report "no fault"), so
// components hold a plain *Injector and need no separate enabled flag.
// Not safe for concurrent use — the simulator is single-threaded.
type Injector struct {
	cfg Config
	// Independent streams per path: injection on one path must not
	// perturb the event sequence of another.
	dramRand *stats.Rand
	nocRand  *stats.Rand
	spRand   *stats.Rand
	dirRand  *stats.Rand
	lbRand   *stats.Rand
	aluRand  *stats.Rand

	ev Events
}

// Per-path stream tweaks: arbitrary odd constants so the streams are
// decorrelated even under adversarial seeds.
const (
	dramStream = 0x9E3779B97F4A7C15
	nocStream  = 0xC2B2AE3D27D4EB4F
	spStream   = 0x165667B19E3779F9
	dirStream  = 0x27D4EB2F165667C5
	lbStream   = 0x85EBCA77C2B2AE63
	aluStream  = 0xFF51AFD7ED558CCD
)

// New builds an injector from cfg (after filling model-parameter
// defaults). It panics on an invalid configuration — configurations are
// static experiment inputs, like core.Config.
func New(cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	return &Injector{
		cfg:      cfg,
		dramRand: stats.NewRand(cfg.Seed ^ dramStream),
		nocRand:  stats.NewRand(cfg.Seed ^ nocStream),
		spRand:   stats.NewRand(cfg.Seed ^ spStream),
		dirRand:  stats.NewRand(cfg.Seed ^ dirStream),
		lbRand:   stats.NewRand(cfg.Seed ^ lbStream),
		aluRand:  stats.NewRand(cfg.Seed ^ aluStream),
	}
}

// Config returns the (default-filled) configuration.
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}
	}
	return in.cfg
}

// Events snapshots the cumulative fault log.
func (in *Injector) Events() Events {
	if in == nil {
		return Events{}
	}
	return in.ev
}

// DRAMRead draws the ECC outcome for one DRAM line read whose device
// access cost devCycles, returning the extra latency to charge: 0 when no
// flip (or a silent one) occurred, the correction penalty for a
// single-bit flip, or a full replay (devCycles plus the detect overhead)
// for a detected double-bit flip.
func (in *Injector) DRAMRead(devCycles memsys.Cycles) memsys.Cycles {
	if in == nil || in.cfg.DRAMFlipRate <= 0 {
		return 0
	}
	if in.dramRand.Float64() >= in.cfg.DRAMFlipRate {
		return 0
	}
	kind := in.dramRand.Float64()
	switch {
	case kind < in.cfg.DRAMSilentFraction:
		in.ev.DRAMSilent++
		return 0
	case kind < in.cfg.DRAMSilentFraction+in.cfg.DRAMDoubleBitFraction:
		in.ev.DRAMDetected++
		extra := devCycles + in.cfg.ECCRetryCycles
		in.ev.DRAMRetryCycles += uint64(extra)
		return extra
	default:
		in.ev.DRAMCorrected++
		in.ev.DRAMRetryCycles += uint64(in.cfg.ECCCorrectCycles)
		return in.cfg.ECCCorrectCycles
	}
}

// NoCSend draws drop/retry behaviour for one non-local message of
// totalBytes that serializes in flits cycles. It returns the extra
// delivery latency (exponential backoff plus re-serialization per
// retransmission) and how many retransmissions were sent — the caller
// charges the retransmitted bytes to its traffic counters so the
// resilience tables see them.
func (in *Injector) NoCSend(flits memsys.Cycles, totalBytes int) (extra memsys.Cycles, resends int) {
	if in == nil || in.cfg.NoCDropRate <= 0 {
		return 0, 0
	}
	if in.nocRand.Float64() >= in.cfg.NoCDropRate {
		return 0, 0
	}
	in.ev.NoCDropped++
	backoff := in.cfg.NoCBackoffCycles
	for attempt := 0; attempt < in.cfg.NoCMaxRetries; attempt++ {
		extra += backoff + flits
		resends++
		backoff *= 2
		if in.nocRand.Float64() >= in.cfg.NoCDropRate {
			// Retransmission delivered.
			in.ev.NoCRetransmits += uint64(resends)
			in.ev.NoCRetryCycles += uint64(extra)
			in.ev.NoCRetransmitBytes += uint64(resends * totalBytes)
			return extra, resends
		}
	}
	// Retry budget exhausted: count it and deliver anyway — the model
	// never loses data, it surfaces the event.
	in.ev.NoCGaveUp++
	in.ev.NoCRetransmits += uint64(resends)
	in.ev.NoCRetryCycles += uint64(extra)
	in.ev.NoCRetransmitBytes += uint64(resends * totalBytes)
	return extra, resends
}

// SPParity draws one scratchpad-access parity check. On a trip it returns
// the detection penalty; the caller degrades the affected line via
// NoteSPDegraded and serves the access from the cache hierarchy.
func (in *Injector) SPParity() (trip bool, penalty memsys.Cycles) {
	if in == nil || in.cfg.SPParityRate <= 0 {
		return false, 0
	}
	if in.spRand.Float64() >= in.cfg.SPParityRate {
		return false, 0
	}
	in.ev.SPParityErrors++
	return true, in.cfg.SPDetectCycles
}

// NoteSPDegraded records that one more distinct vertex line was degraded
// from scratchpad to the cache hierarchy.
func (in *Injector) NoteSPDegraded() {
	if in == nil {
		return
	}
	in.ev.SPDegradedVertices++
}

// DirFlip draws one directory-site event: on a hit it returns two raw
// selectors — which occupied probe-table slot to corrupt and which tag
// bit to flip — for the directory to apply.
func (in *Injector) DirFlip() (slotSel, bitSel uint64, ok bool) {
	if in == nil || in.cfg.DirFlipRate <= 0 {
		return 0, 0, false
	}
	if in.dirRand.Float64() >= in.cfg.DirFlipRate {
		return 0, 0, false
	}
	in.ev.DirFlips++
	return in.dirRand.Uint64(), in.dirRand.Uint64(), true
}

// NoteDirScrubRepairs records corrupt directory entries erased by one
// scrub pass.
func (in *Injector) NoteDirScrubRepairs(n int) {
	if in == nil || n <= 0 {
		return
	}
	in.ev.DirScrubRepairs += uint64(n)
}

// LineBufFlip draws one line-buffer-site event: on a hit it returns a raw
// selector for which latency bit of the freshly installed memo to flip.
func (in *Injector) LineBufFlip() (bitSel uint64, ok bool) {
	if in == nil || in.cfg.LineBufFlipRate <= 0 {
		return 0, false
	}
	if in.lbRand.Float64() >= in.cfg.LineBufFlipRate {
		return 0, false
	}
	in.ev.LineBufFlips++
	return in.lbRand.Uint64(), true
}

// NoteLineBufGenCatch records a corrupt memo rejected by the generation
// check (the detection arm of the line-buffer site).
func (in *Injector) NoteLineBufGenCatch() {
	if in == nil {
		return
	}
	in.ev.LineBufGenCatches++
}

// ALUFlip draws one PISC ALU transient: on a hit it returns a single-bit
// XOR mask the framework applies to the just-computed update result.
// This is the one functional fault site — the corruption propagates into
// algorithm outputs and only end-to-end validation can see it.
func (in *Injector) ALUFlip() (mask uint64, ok bool) {
	if in == nil || in.cfg.ALUFlipRate <= 0 {
		return 0, false
	}
	if in.aluRand.Float64() >= in.cfg.ALUFlipRate {
		return 0, false
	}
	in.ev.ALUFlips++
	return 1 << (in.aluRand.Uint64() % 64), true
}
