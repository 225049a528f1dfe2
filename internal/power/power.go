// Package power is the area/power/energy model of paper §X.B: the role
// McPAT (cores), Cacti (SRAM arrays), and IBM 45 nm synthesis (PISC) play
// in the paper. Component constants are calibrated so a Table III-sized
// node reproduces Table IV; smaller scaled machines get proportionally
// smaller arrays.
package power

import (
	"fmt"
	"math"

	"omega/internal/core"
)

// Component describes one block's peak power and area.
type Component struct {
	Name    string
	PowerW  float64
	AreaMM2 float64
}

// NodeBudget is the Table IV breakdown for one machine.
type NodeBudget struct {
	Machine    string
	Components []Component
}

// TotalPower sums component peak power in watts.
func (n NodeBudget) TotalPower() float64 {
	var t float64
	for _, c := range n.Components {
		t += c.PowerW
	}
	return t
}

// TotalArea sums component area in mm².
func (n NodeBudget) TotalArea() float64 {
	var t float64
	for _, c := range n.Components {
		t += c.AreaMM2
	}
	return t
}

// Per-node calibration constants (one core's slice of the chip), taken
// from Table IV of the paper: a 2 MB 8-way L2 bank is 2.86 W / 8.41 mm²,
// a 1 MB scratchpad is 1.40 W / 3.17 mm², etc. SRAM power/area scale
// close to linearly with capacity at fixed technology, which is what
// Cacti reports in this range.
const (
	corePowerW  = 3.11
	coreAreaMM2 = 24.08

	l1PowerW   = 0.20
	l1AreaMM2  = 0.42
	l1RefBytes = 64 << 10 // I+D reference (32 KB each in the testbed)

	// SRAM arrays scale sub-linearly with capacity; the exponents are
	// fit from Table IV's two L2 points (2 MB: 2.86 W / 8.41 mm²,
	// 1 MB: 1.50 W / 4.47 mm²).
	l2Power1MBW  = 1.50
	l2Area1MBMM2 = 4.47
	sramPowerExp = 0.931
	sramAreaExp  = 0.912
	sp1MBPowerW  = 1.40 // Table IV scratchpad (no tags)
	sp1MBAreaMM2 = 3.17

	piscPowerW  = 0.004
	piscAreaMM2 = 0.01
)

// sramScale applies the sub-linear capacity scaling.
func sramScale(base1MB float64, mb, exp float64) float64 {
	if mb <= 0 {
		return 0
	}
	return base1MB * math.Pow(mb, exp)
}

// Budget computes the per-node (per-core slice) Table IV budget for a
// machine configuration.
func Budget(cfg core.Config) NodeBudget {
	mb := func(bytes int) float64 { return float64(bytes) / (1 << 20) }
	b := NodeBudget{Machine: cfg.Name}
	b.Components = append(b.Components,
		Component{"Core", corePowerW, coreAreaMM2},
		Component{"L1 caches", l1PowerW * float64(cfg.L1Bytes*2) / l1RefBytes,
			l1AreaMM2 * float64(cfg.L1Bytes*2) / l1RefBytes},
	)
	if cfg.SPBytesPerCore > 0 {
		b.Components = append(b.Components,
			Component{"Scratchpad", sramScale(sp1MBPowerW, mb(cfg.SPBytesPerCore), sramPowerExp),
				sramScale(sp1MBAreaMM2, mb(cfg.SPBytesPerCore), sramAreaExp)})
		if cfg.PISC {
			b.Components = append(b.Components, Component{"PISC", piscPowerW, piscAreaMM2})
		}
	}
	b.Components = append(b.Components,
		Component{"L2 cache", sramScale(l2Power1MBW, mb(cfg.L2BytesPerCore), sramPowerExp),
			sramScale(l2Area1MBMM2, mb(cfg.L2BytesPerCore), sramAreaExp)})
	return b
}

// Per-event and per-byte energies (picojoules) for the Figure 21 memory-
// system energy breakdown, Cacti/DRAM-power-class constants at 45 nm.
// The scratchpad beats the cache per access because it has no tag array
// or comparators (the paper's explanation for OMEGA's energy edge).
const (
	l1AccessPJ    = 15
	l2AccessPJ    = 120
	spAccessPJ    = 45
	piscOpPJ      = 8
	nocPJPerByte  = 6
	dramPJPerByte = 60
	// Static (leakage+clock) power charged per cycle per MB of on-chip
	// SRAM and per node of logic.
	sramStaticPJPerCycleMB = 0.08
)

// EnergyBreakdown is the Figure 21 result for one run: energy spent per
// memory-system component, in microjoules.
type EnergyBreakdown struct {
	Machine string
	L1uJ    float64
	L2uJ    float64
	SPuJ    float64
	PISCuJ  float64
	NoCuJ   float64
	DRAMuJ  float64
	// StaticuJ is on-chip SRAM leakage over the run.
	StaticuJ float64
}

// TotaluJ sums all buckets.
func (e EnergyBreakdown) TotaluJ() float64 {
	return e.L1uJ + e.L2uJ + e.SPuJ + e.PISCuJ + e.NoCuJ + e.DRAMuJ + e.StaticuJ
}

// Energy computes the memory-system energy of a finished run from its
// machine statistics (Figure 21).
func Energy(cfg core.Config, st core.MachineStats) EnergyBreakdown {
	pjToUJ := 1e-6
	// Scratchpad-served accesses bypass the cache path entirely.
	l1Accesses := float64(st.TotalAccesses()) - float64(st.SPAccesses)
	if l1Accesses < 0 {
		l1Accesses = 0
	}
	l2Accesses := l1Accesses * (1 - st.L1HitRate)
	e := EnergyBreakdown{Machine: cfg.Name}
	e.L1uJ = l1Accesses * l1AccessPJ * pjToUJ
	e.L2uJ = l2Accesses * l2AccessPJ * pjToUJ
	e.SPuJ = float64(st.SPAccesses) * spAccessPJ * pjToUJ
	e.PISCuJ = float64(st.PISCOps) * piscOpPJ * pjToUJ
	e.NoCuJ = float64(st.NoCBytes) * nocPJPerByte * pjToUJ
	e.DRAMuJ = float64(st.DRAMBytes) * dramPJPerByte * pjToUJ
	onChipMB := float64(cfg.TotalOnChipStorage()) / (1 << 20)
	e.StaticuJ = float64(st.Cycles) * onChipMB * sramStaticPJPerCycleMB * pjToUJ
	return e
}

// Saving returns how many times less energy e uses than other.
func (e EnergyBreakdown) Saving(other EnergyBreakdown) float64 {
	if e.TotaluJ() == 0 {
		return 0
	}
	return other.TotaluJ() / e.TotaluJ()
}

// Format renders the breakdown.
func (e EnergyBreakdown) Format() string {
	return fmt.Sprintf(
		"[%s] total %.1f uJ (L1 %.1f, L2 %.1f, SP %.1f, PISC %.2f, NoC %.1f, DRAM %.1f, static %.1f)",
		e.Machine, e.TotaluJ(), e.L1uJ, e.L2uJ, e.SPuJ, e.PISCuJ, e.NoCuJ, e.DRAMuJ, e.StaticuJ)
}
