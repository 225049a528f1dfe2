package experiments

import (
	"fmt"

	"omega/internal/algorithms"
	"omega/internal/core"
	"omega/internal/faults"
	"omega/internal/ligra"
	"omega/internal/pisc"
	"omega/internal/resilience"
)

// CampaignRates are the injection-rate sweep points of the R2 campaigns
// (the high R1 point is dropped: at 1e-2 every site saturates into the
// same all-failed histogram, which measures nothing).
var CampaignRates = []float64{1e-4, 1e-3}

// campaignSeedCount is how many independent fault seeds each (site, rate)
// cell sweeps.
const campaignSeedCount = 2

// CampaignFor assembles the standard R2 campaign for an options set:
// PageRank on the reordered rmat stand-in, on the OMEGA machine (the only
// variant with every injection site live: scratchpad parity, PISC ALU,
// line buffer, directory, DRAM, NoC), sweeping every fault site over
// CampaignRates × campaignSeedCount seeds.
func CampaignFor(o Options) resilience.Campaign {
	o = o.Defaults()
	spec, _ := algorithms.ByName("PageRank")
	pr := prepareDataset(mustDataset("rmat"), o, false)
	_, omCfg := core.ScaledPair(pr.g.NumVertices(), spec.VtxPropBytes, o.Coverage)
	seeds := make([]uint64, campaignSeedCount)
	for i := range seeds {
		seeds[i] = o.FaultSeed + uint64(i)
	}
	return resilience.Campaign{
		Workload: resilience.Workload{
			Name:   "PageRank/rmat/omega",
			Config: omCfg,
			Graph:  pr.g,
			// The rank vector is the validated output. PageRank's property
			// array is scratch (zeroed every iteration), so the workload
			// must hand the ranks to the engine explicitly — otherwise ALU
			// corruption folds into the result unseen.
			Run: func(fw *ligra.Framework) (core.MachineStats, [][]pisc.Value) {
				res := algorithms.PageRank(fw, algorithms.Params{Iterations: 1})
				out := make([]pisc.Value, len(res.Ranks))
				for i, r := range res.Ranks {
					out[i] = pisc.FloatValue(r)
				}
				return fw.Machine().Stats(), [][]pisc.Value{out}
			},
		},
		Sites: faults.Sites(),
		Rates: CampaignRates,
		Seeds: seeds,
		Ctx:   o.ctx,
	}
}

// RunResilienceCampaign is the Resilience R2 experiment: the full fault
// campaign — site × rate sweep, golden-validated outcome classification,
// re-execution recovery on fresh machines — rendered as the
// outcome-histogram table. After the golden run, the (site, rate) cells
// fan out like any other experiment's machine variants (runVariants).
func RunResilienceCampaign(o Options) *Table {
	o = o.Defaults()
	camp := CampaignFor(o)
	// Campaign runs never route through the cell cache: every injected run
	// perturbs the machine, and the golden run is the engine's private
	// reference, so none of them are reusable cells. Count them so the
	// suite's cache report stays honest about what was skipped (the golden
	// run plus one first-attempt per site × rate × seed; recovery
	// re-executions are demand-driven and not counted here).
	if o.Cells != nil {
		o.Cells.noteUncacheable(UncacheableCampaign,
			uint64(1+len(camp.Sites)*len(camp.Rates)*len(camp.Seeds)))
	}
	golden, err := resilience.RunGolden(camp.Workload, camp.Ctx)
	if err != nil {
		return FailedTable("Resilience R2", err.Error())
	}
	t := &Table{
		ID: "Resilience R2",
		Title: fmt.Sprintf("fault campaigns: %s, %d seeds/cell, recovery budget %d",
			camp.Workload.Name, len(camp.Seeds), resilience.MaxRetries),
		Header: []string{"site", "rate", "clean", "det-corr", "det-degr",
			"crashed", "sdc", "recovered", "reexecs", "overhead cyc"},
	}
	for _, cell := range runVariants(o, camp.Cells(golden)...) {
		t.AddRow(cell.Site.String(), fmt.Sprintf("%.0e", cell.Rate),
			cell.Outcomes[resilience.Clean],
			cell.Outcomes[resilience.DetectedCorrected],
			cell.Outcomes[resilience.DetectedDegraded],
			cell.Outcomes[resilience.Crashed],
			cell.Outcomes[resilience.SilentDataCorruption],
			cell.Recovered, cell.Reexecutions, cell.OverheadCycles)
	}
	// The recovery note's "pristine machine checkpoint" predates retries on
	// fresh machines (a fresh machine is that checkpoint); the wording is
	// kept because perfbench's pinned suite digest covers table notes.
	t.Notes = append(t.Notes,
		"histogram columns classify each run's FIRST attempt against the fault-free golden:",
		"outputs (rank vectors within tolerance), timing signature, and detection counters",
		fmt.Sprintf("recovery: up to %d re-executions from the pristine machine checkpoint,", resilience.MaxRetries),
		fmt.Sprintf("backoff %d cycles doubling per retry, float tolerance %.0e", resilience.BackoffCycles, resilience.Tolerance),
		fmt.Sprintf("fault seeds %v (re-executions re-key streams per attempt); dataset seed %d", camp.Seeds, o.Seed),
		"sp-parity degradation is permanent by design: those runs classify detected-degraded",
		"and need no re-execution — OMEGA keeps running slower instead of wrong")
	return t
}
