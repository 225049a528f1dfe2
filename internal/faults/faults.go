// Package faults is the deterministic, seed-driven fault injector of the
// reproduction's resilience study. It models soft errors at six injection
// sites (see Site): DRAM read bit flips, dropped interconnect messages,
// scratchpad parity errors, coherence-directory tag flips, same-line memo
// corruption, and PISC ALU transients. The first five are timing events
// with a detection mechanism, so a run under injection produces the same
// algorithmic results, only slower — the graceful-degradation property
// the resilience experiments quantify; the ALU site alone corrupts
// results.
//
// Six independent xorshift streams (one per site) are derived from a
// single seed, so the fault pattern at one site never perturbs the draws
// at another and the same (seed, rates) pair always reproduces the exact
// same event sequence — MachineStats under injection are byte-identical
// across runs.
//
// Fault models (the constants below fix every parameter but the rates):
//
//   - DRAM read bit-flips behind a SECDED ECC code: single-bit flips are
//     corrected inline for a small latency penalty, double-bit flips are
//     detected and replayed (the full device access is charged again),
//     and a small tail of ≥3-bit flips escapes the code entirely and is
//     only counted (a real system would see silent data corruption; the
//     simulator keeps functional state correct and records the exposure).
//   - NoC message drops: a dropped message is retransmitted after
//     exponential backoff, bounded by nocMaxRetries; every retransmission
//     costs cycles (backoff + re-serialization) and bytes (the message
//     travels again). A message whose retries are exhausted is counted as
//     given-up and delivered anyway — the model never loses data, it
//     surfaces the event instead.
//   - Scratchpad parity errors: a parity hit on a scratchpad line marks
//     the backing vertex line bad; the access (and every later access to
//     that vertex) falls back to the cache hierarchy, so OMEGA keeps
//     running slower instead of wrong.
//   - Directory tag flips: one occupied probe-table entry's tag bit flips;
//     the scrubber catches it through the entry's check byte and erases
//     it, charging DirScrubCycles to the triggering access.
//   - Same-line memo corruption: the memo a core's full probe just armed is
//     corrupted; the generation check refuses it, so the next read of its
//     line re-probes and counts a catch.
//   - PISC ALU transients: one bit of an offloaded update's result flips.
//     The corrupted value lands in the vtxProp array, and only end-to-end
//     output validation can see it.
package faults

import (
	"fmt"

	"omega/internal/memsys"
	"omega/internal/stats"
)

// Fault-model parameters. Only the per-site rates in Config vary between
// runs.
const (
	// dramDoubleBitFraction is the conditional probability that a DRAM
	// flip event is a double-bit (detected, replayed) rather than
	// single-bit (corrected) error.
	dramDoubleBitFraction = 0.10
	// dramSilentFraction is the conditional probability that a DRAM flip
	// event exceeds SECDED's detection capability (≥3 bits) and passes
	// silently.
	dramSilentFraction = 0.01
	// eccCorrectCycles is the inline single-bit correction penalty.
	eccCorrectCycles memsys.Cycles = 2
	// eccRetryCycles is the detect-and-replay overhead charged on top of
	// the replayed device access.
	eccRetryCycles memsys.Cycles = 8
	// nocMaxRetries bounds retransmissions per message.
	nocMaxRetries = 3
	// nocBackoffCycles is the first retransmission's backoff; it doubles
	// on every further attempt (exponential backoff).
	nocBackoffCycles memsys.Cycles = 16
	// spDetectCycles is the parity-detection penalty charged to the
	// scratchpad access that trips it.
	spDetectCycles memsys.Cycles = 4
	// DirScrubCycles is the latency charged to the access whose directory
	// flip triggers a scrub pass.
	DirScrubCycles memsys.Cycles = 6
)

// Config sets the injector's seed and per-site rates. The zero value
// disables every fault site; a Config with all rates zero is a no-op
// injector whose attached machine produces bit-identical statistics to an
// injector-free one.
type Config struct {
	// Seed drives the per-site random streams. Recovery re-executions
	// run attempt k on Seed+k, so retry k of seed s draws the same
	// streams as the first attempt of seed s+k: campaigns sweeping
	// consecutive seeds replay one seed's first attempt in another's
	// retry.
	Seed uint64

	// DRAMFlipRate is the probability that one DRAM line read suffers at
	// least one bit flip.
	DRAMFlipRate float64
	// NoCDropRate is the per-message (and per-retransmission) drop
	// probability for non-local NoC messages.
	NoCDropRate float64
	// SPParityRate is the per-access probability that a scratchpad line
	// read trips parity, permanently degrading that vertex line to the
	// cache hierarchy.
	SPParityRate float64
	// DirFlipRate is the per-access probability that one occupied
	// coherence-directory probe-table entry suffers a tag bit flip, which
	// the scrubber then repairs.
	DirFlipRate float64
	// LineBufFlipRate is the per-arm probability that a core's same-line
	// memo is corrupted by the full probe that just armed it. The modeled
	// generation check refuses the corrupt memo, so the next read of its
	// line re-probes and counts a catch.
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

// Validate checks that every rate is a probability.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"DRAMFlipRate", c.DRAMFlipRate},
		{"NoCDropRate", c.NoCDropRate},
		{"SPParityRate", c.SPParityRate},
		{"DirFlipRate", c.DirFlipRate},
		{"LineBufFlipRate", c.LineBufFlipRate},
		{"ALUFlipRate", c.ALUFlipRate},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults: %s %g outside [0,1]", p.name, p.v)
		}
	}
	return nil
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

// Injector draws fault events for the six injection sites. All
// methods are safe on a nil receiver (they report "no fault"), so
// components hold a plain *Injector and need no separate enabled flag.
// Not safe for concurrent use — the simulator is single-threaded.
type Injector struct {
	cfg Config
	// Independent streams per site: injection at one site must not
	// perturb the event sequence of another.
	dramRand *stats.Rand
	nocRand  *stats.Rand
	spRand   *stats.Rand
	dirRand  *stats.Rand
	lbRand   *stats.Rand
	aluRand  *stats.Rand

	ev Events
}

// Per-site stream tweaks: arbitrary odd constants so the streams are
// decorrelated even under adversarial seeds.
const (
	dramStream = 0x9E3779B97F4A7C15
	nocStream  = 0xC2B2AE3D27D4EB4F
	spStream   = 0x165667B19E3779F9
	dirStream  = 0x27D4EB2F165667C5
	lbStream   = 0x85EBCA77C2B2AE63
	aluStream  = 0xFF51AFD7ED558CCD
)

// New builds an injector from cfg. It panics on an invalid
// configuration — configurations are static experiment inputs, like
// core.Config.
func New(cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
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
	case kind < dramSilentFraction:
		in.ev.DRAMSilent++
		return 0
	case kind < dramSilentFraction+dramDoubleBitFraction:
		in.ev.DRAMDetected++
		extra := devCycles + eccRetryCycles
		in.ev.DRAMRetryCycles += uint64(extra)
		return extra
	default:
		in.ev.DRAMCorrected++
		in.ev.DRAMRetryCycles += uint64(eccCorrectCycles)
		return eccCorrectCycles
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
	backoff := nocBackoffCycles
	for attempt := 0; attempt < nocMaxRetries; attempt++ {
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
	return true, spDetectCycles
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

// LineBufFlip draws one line-buffer-site event: it reports whether the
// freshly armed memo is corrupted.
func (in *Injector) LineBufFlip() bool {
	if in == nil || in.cfg.LineBufFlipRate <= 0 {
		return false
	}
	if in.lbRand.Float64() >= in.cfg.LineBufFlipRate {
		return false
	}
	in.ev.LineBufFlips++
	// A hit also draws a bit selector that nothing reads: the pinned
	// event streams (and every table under injection) depend on the
	// stream position that draw leaves.
	in.lbRand.Uint64()
	return true
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
