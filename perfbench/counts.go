package main

import (
	"omega/internal/memsys"
	"omega/internal/obs"
)

// simCounts sums the simulated-machine counters the per-layer report
// needs. Simulation is deterministic, so for a fixed seed every field
// repeats exactly from run to run and from commit to commit unless the
// modelled machine changed.
type simCounts struct {
	accesses, atomics, iterations, lbHits                    uint64
	l1Hits, l1Total, l2Hits, l2Total, evictions, writebacks  uint64
	invalidations, nocMessages, nocBytes                     uint64
	dramAccesses, rowHits, rowTotal, spAccesses, pisc, items uint64
}

// add folds one registry value (or one final sample of the suite's
// metric stream) into the sums. Components are named as core registers
// them; levels distinguish the L1 tier from the shared tier.
func (c *simCounts) add(component, name, level string, v uint64) {
	l1 := level == memsys.LevelL1.String()
	switch component + "/" + name {
	case "machine/accesses":
		c.accesses += v
	case "machine/atomics":
		c.atomics += v
	case "machine/iterations":
		c.iterations += v
	case "linebuf/hits":
		c.lbHits += v
	case "cache/read_hits", "cache/write_hits":
		if l1 {
			c.l1Hits += v
		} else {
			c.l2Hits += v
		}
	case "cache/read_total", "cache/write_total":
		if l1 {
			c.l1Total += v
		} else {
			c.l2Total += v
		}
	case "cache/evictions":
		c.evictions += v
	case "cache/writebacks":
		c.writebacks += v
	case "coherence/invalidations":
		c.invalidations += v
	case "noc/messages":
		c.nocMessages += v
	case "noc/bytes":
		c.nocBytes += v
	case "dram/accesses":
		c.dramAccesses += v
	case "dram/row_hits":
		c.rowHits += v
	case "dram/row_total":
		c.rowTotal += v
	case "scratchpad/local", "scratchpad/remote":
		c.spAccesses += v
	case "pisc/executed":
		c.pisc += v
	case "sched/items":
		c.items += v
	}
}

// addRegistry folds every counter of a machine's registry.
func (c *simCounts) addRegistry(r *obs.Registry) {
	r.Each(func(d obs.Desc) {
		if d.Read != nil {
			c.add(d.Component, d.Name, d.Level, d.Read())
		}
	})
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// metrics renders the sums under their per-layer metric names. Ratios
// name their base: linebuf.hit_ratio is over all issued accesses.
func (c *simCounts) metrics(out metrics) {
	out.count("machine.accesses", c.accesses)
	out.count("machine.atomics", c.atomics)
	out.count("machine.iterations", c.iterations)
	out.count("linebuf.hits", c.lbHits)
	out.set("linebuf.hit_ratio", ratio(c.lbHits, c.accesses), "ratio")
	out.count("cache.l1.misses", c.l1Total-c.l1Hits)
	out.set("cache.l1.hit_ratio", ratio(c.l1Hits, c.l1Total), "ratio")
	out.count("cache.l2.misses", c.l2Total-c.l2Hits)
	out.count("cache.evictions", c.evictions)
	out.count("cache.writebacks", c.writebacks)
	out.count("coherence.invalidations", c.invalidations)
	out.count("noc.messages", c.nocMessages)
	out.count("noc.bytes", c.nocBytes)
	out.count("dram.accesses", c.dramAccesses)
	out.set("dram.row_hit_ratio", ratio(c.rowHits, c.rowTotal), "ratio")
	out.count("scratchpad.accesses", c.spAccesses)
	out.count("pisc.executed", c.pisc)
	out.count("sched.items", c.items)
}
