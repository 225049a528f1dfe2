package power

import (
	"math"
	"strings"
	"testing"

	"omega/internal/core"
)

func TestBudgetMatchesTableIV(t *testing.T) {
	base := Budget(core.Baseline())
	om := Budget(core.OMEGA())
	// Paper Table IV: baseline 6.17 W / 32.91 mm2; OMEGA 6.21 W / 32.15 mm2.
	within := func(got, want, tolPct float64) bool {
		return math.Abs(got-want)/want*100 <= tolPct
	}
	if !within(base.TotalPower(), 6.17, 3) {
		t.Fatalf("baseline power %.2f, paper 6.17", base.TotalPower())
	}
	if !within(base.TotalArea(), 32.91, 3) {
		t.Fatalf("baseline area %.2f, paper 32.91", base.TotalArea())
	}
	if !within(om.TotalPower(), 6.21, 3) {
		t.Fatalf("omega power %.2f, paper 6.21", om.TotalPower())
	}
	if !within(om.TotalArea(), 32.15, 3) {
		t.Fatalf("omega area %.2f, paper 32.15", om.TotalArea())
	}
}

func TestOMEGANodeSlightlySmallerSlightlyHotter(t *testing.T) {
	// The paper's punchline: OMEGA is -2.31% area, +0.65% power.
	base := Budget(core.Baseline())
	om := Budget(core.OMEGA())
	if om.TotalArea() >= base.TotalArea() {
		t.Fatal("OMEGA node should be slightly smaller (no tags on scratchpads)")
	}
	if om.TotalPower() <= base.TotalPower() {
		t.Fatal("OMEGA node should be slightly higher peak power")
	}
}

func TestPISCIsTiny(t *testing.T) {
	om := Budget(core.OMEGA())
	var pisc, total float64
	for _, c := range om.Components {
		total += c.AreaMM2
		if c.Name == "PISC" {
			pisc = c.AreaMM2
		}
	}
	if pisc <= 0 || pisc/total > 0.01 {
		t.Fatalf("PISC area overhead %.4f should be <<1%%", pisc/total)
	}
}

func TestBaselineHasNoScratchpadComponents(t *testing.T) {
	base := Budget(core.Baseline())
	for _, c := range base.Components {
		if c.Name == "Scratchpad" || c.Name == "PISC" {
			t.Fatalf("baseline should not include %s", c.Name)
		}
	}
}

func TestEnergyScalesWithActivity(t *testing.T) {
	cfg := core.Baseline()
	small := core.MachineStats{Cycles: 1000, L1HitRate: 0.9}
	small.AccessesByKind[0] = 1000
	big := small
	big.AccessesByKind[0] = 100000
	big.DRAMBytes = 1 << 20
	eSmall := Energy(cfg, small)
	eBig := Energy(cfg, big)
	if eBig.TotaluJ() <= eSmall.TotaluJ() {
		t.Fatal("more activity must cost more energy")
	}
	if eBig.DRAMuJ == 0 {
		t.Fatal("DRAM energy missing")
	}
}

func TestEnergySavingShape(t *testing.T) {
	// An OMEGA-like run (fewer DRAM bytes, fewer cycles, SP accesses)
	// must save energy vs a baseline-like run — the Figure 21 shape.
	baseCfg, omCfg := core.ScaledPair(1<<14, 8, 0.2)
	baseStats := core.MachineStats{Cycles: 2000000, L1HitRate: 0.7, DRAMBytes: 14 << 20, NoCBytes: 13 << 20}
	baseStats.AccessesByKind[0] = 500000
	baseStats.AccessesByKind[1] = 500000
	omStats := core.MachineStats{Cycles: 800000, L1HitRate: 0.85, DRAMBytes: 4 << 20, NoCBytes: 4 << 20,
		SPAccesses: 400000, PISCOps: 300000}
	omStats.AccessesByKind[0] = 500000
	omStats.AccessesByKind[1] = 500000
	be := Energy(baseCfg, baseStats)
	oe := Energy(omCfg, omStats)
	if oe.Saving(be) < 1.5 {
		t.Fatalf("OMEGA-shaped run should save >1.5x energy, got %.2f", oe.Saving(be))
	}
}

func TestEnergySPAccountingExcludesSPFromCachePath(t *testing.T) {
	cfg := core.OMEGA()
	st := core.MachineStats{Cycles: 1000, L1HitRate: 0.5, SPAccesses: 1000}
	st.AccessesByKind[0] = 1000 // all accesses were SP-served
	e := Energy(cfg, st)
	if e.L1uJ != 0 || e.L2uJ != 0 {
		t.Fatalf("SP-served accesses charged to caches: L1 %v L2 %v", e.L1uJ, e.L2uJ)
	}
	if e.SPuJ == 0 {
		t.Fatal("SP energy missing")
	}
}

func TestEnergyFormat(t *testing.T) {
	e := EnergyBreakdown{Machine: "m", L1uJ: 1, DRAMuJ: 2}
	if !strings.Contains(e.Format(), "DRAM") {
		t.Fatal("format missing DRAM")
	}
	var zero EnergyBreakdown
	if zero.Saving(e) != 0 {
		t.Fatal("zero-energy saving should be 0")
	}
}
