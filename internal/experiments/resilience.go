package experiments

import (
	"fmt"

	"omega/internal/algorithms"
	"omega/internal/core"
	"omega/internal/faults"
)

// ResilienceRates are the default injection-rate sweep points of the
// resilience study (probability per DRAM read / NoC message; scratchpad
// parity runs at 1/100th of the point because its damage is permanent).
var ResilienceRates = []float64{1e-4, 1e-3, 1e-2}

// ResilienceFaults builds the fault configuration for one sweep point.
func ResilienceFaults(seed uint64, rate float64) faults.Config {
	return faults.Config{
		Seed:         seed,
		DRAMFlipRate: rate,
		NoCDropRate:  rate,
		SPParityRate: rate / 100,
	}
}

// RunResilience produces the paper-style resilience table: PageRank on
// the rmat stand-in under a sweep of injection rates, comparing baseline
// and OMEGA on (a) slowdown under injection relative to the fault-free
// run and (b) bytes exposed to the fault-prone paths (DRAM + NoC) — the
// resilience angle of the paper's §V.E granularity argument: OMEGA moves
// word-sized scratchpad packets where the baseline moves 64 B cache
// lines, so fewer bytes are in flight to be hit by any given fault rate,
// and scratchpad parity errors degrade gracefully to the cache hierarchy
// instead of corrupting results.
func RunResilience(o Options) *Table {
	o = o.Defaults()
	spec, _ := algorithms.ByName("PageRank")
	t := &Table{
		ID:    "Resilience R1",
		Title: "fault injection: baseline vs OMEGA, PageRank on rmat",
		Header: []string{"rate", "base cycles", "base slowdown", "omega cycles",
			"omega slowdown", "ECC corr b/o", "ECC det b/o", "NoC drop b/o",
			"SP degraded", "exposed MB b/o"},
	}
	pr := prepareDataset(mustDataset("rmat"), o, false)

	run := func(rate float64) (core.MachineStats, core.MachineStats) {
		baseCfg, omCfg := core.ScaledPair(pr.g.NumVertices(), spec.VtxPropBytes, o.Coverage)
		if rate > 0 {
			baseCfg.Faults = ResilienceFaults(o.Seed, rate)
			omCfg.Faults = ResilienceFaults(o.Seed, rate)
		}
		res := runMachines(o, spec.Name, pr, baseCfg, omCfg)
		return res[0], res[1]
	}

	exposedMB := func(s core.MachineStats) float64 {
		return float64(s.DRAMBytes+s.NoCBytes) / (1 << 20)
	}

	base0, om0 := run(0)
	t.AddRow("0 (fault-free)", uint64(base0.Cycles), 1.0, uint64(om0.Cycles), 1.0,
		"0/0", "0/0", "0/0", om0.SPDegraded,
		fmt.Sprintf("%.2f/%.2f", exposedMB(base0), exposedMB(om0)))

	var lastBase, lastOm core.MachineStats
	for _, rate := range ResilienceRates {
		base, om := run(rate)
		lastBase, lastOm = base, om
		t.AddRow(fmt.Sprintf("%.0e", rate),
			uint64(base.Cycles),
			float64(base.Cycles)/float64(base0.Cycles),
			uint64(om.Cycles),
			float64(om.Cycles)/float64(om0.Cycles),
			fmt.Sprintf("%d/%d", base.Faults.DRAMCorrected, om.Faults.DRAMCorrected),
			fmt.Sprintf("%d/%d", base.Faults.DRAMDetected, om.Faults.DRAMDetected),
			fmt.Sprintf("%d/%d", base.Faults.NoCDropped, om.Faults.NoCDropped),
			om.SPDegraded,
			fmt.Sprintf("%.2f/%.2f", exposedMB(base), exposedMB(om)))
	}
	t.Notes = append(t.Notes,
		"rate applies per DRAM read and per NoC message; SP parity at rate/100",
		"(its damage is permanent: the line degrades to the cache hierarchy)",
		"exposure: OMEGA's word-granularity packets put fewer bytes in flight",
		"on the fault-prone paths than the baseline's 64 B line transfers",
		fmt.Sprintf("at the highest rate OMEGA exposes %.2fx fewer bytes and keeps speedup %.2fx",
			exposedMB(lastBase)/exposedMB(lastOm),
			lastOm.Speedup(lastBase)))
	return t
}
