// Package cpu models the timing of one out-of-order core at the level of
// detail the OMEGA study needs: a ROB-style window of overlapping
// outstanding misses (memory-level parallelism), full stalls for blocking
// operations (baseline atomics), and a cycle breakdown in
// the spirit of Intel's Top-down Microarchitecture Analysis Method so
// Figure 3 of the paper can be regenerated.
//
// The model deliberately does not simulate individual pipeline stages:
// the paper's phenomena are memory-subsystem phenomena, and an
// MLP-limited window reproduces them (see DESIGN.md §1).
package cpu

import "omega/internal/memsys"

// The core timing is the Table III core, fixed: every simulated machine
// runs the same cores, so the parameters are constants and Exec divides
// only by constants.
const (
	// width is the superscalar issue width (8 in Table III). Graph kernels
	// retire well below full width because of dependence chains, so the
	// effective retire rate is ipc = width/2.
	width = 8
	ipc   = width / 2
	// robEntries bounds in-flight instructions (192 in Table III).
	robEntries = 192
	// instrsPerAccess is the average number of instructions between
	// long-latency memory accesses in the graph inner loops; it converts
	// ROB capacity into the miss-level-parallelism bound maxMLP, the number
	// of overlappable outstanding long-latency accesses.
	instrsPerAccess = 12
	maxMLP          = robEntries / instrsPerAccess
	// bubbleNum/bubbleDen charge frontend-bound cycles per retired
	// instruction (Fig. 3 shows a small frontend component).
	bubbleNum = 1
	bubbleDen = 10
)

// Breakdown is the TMAM-style cycle accounting of one core.
type Breakdown struct {
	// Retiring covers cycles spent usefully executing instructions.
	Retiring memsys.Cycles
	// Frontend covers fetch/decode bubbles.
	Frontend memsys.Cycles
	// MemoryBound covers backend stalls waiting on the memory subsystem.
	MemoryBound memsys.Cycles
	// CoreBound covers other backend stalls (non-memory execution
	// pressure; small in graph workloads).
	CoreBound memsys.Cycles
}

// Total returns the sum of all buckets.
func (b Breakdown) Total() memsys.Cycles {
	return b.Retiring + b.Frontend + b.MemoryBound + b.CoreBound
}

// Core is the timing model for a single core. Not safe for concurrent use.
type Core struct {
	clock memsys.Cycles

	// outstanding holds completion times of in-flight overlappable
	// accesses, unordered; len <= maxMLP.
	outstanding []memsys.Cycles

	breakdown    Breakdown
	instructions uint64
	// frontendAccum accumulates fractional frontend bubbles in
	// 1/bubbleDen units to stay integer-exact.
	frontendAccum uint

	// Stall attribution (diagnostics): blocking-access stalls,
	// window-full stalls, barrier drains, and offload backpressure.
	BlockingStall memsys.Cycles
	WindowStall   memsys.Cycles
	DrainStall    memsys.Cycles
	OffloadStall  memsys.Cycles
}

// New builds a core at clock 0.
func New() *Core { return &Core{} }

// Clock returns the core's local time.
func (c *Core) Clock() memsys.Cycles { return c.clock }

// SetClock force-sets local time (used at barriers).
func (c *Core) SetClock(t memsys.Cycles) {
	if t < c.clock {
		panic("cpu: clock moved backwards")
	}
	c.clock = t
}

// Instructions returns the retired instruction count.
func (c *Core) Instructions() uint64 { return c.instructions }

// Breakdown returns the TMAM cycle accounting so far.
func (c *Core) Breakdown() Breakdown { return c.breakdown }

// Exec retires ops ALU/branch instructions at the effective rate ipc.
// Every divisor is a constant, so Exec is small enough to inline into the
// framework's loops.
func (c *Core) Exec(ops int) {
	if ops <= 0 {
		return
	}
	n := uint(ops)
	c.instructions += uint64(n)
	cycles := memsys.Cycles((n + ipc - 1) / ipc)
	c.clock += cycles
	c.breakdown.Retiring += cycles
	// Frontend bubbles accrue per instruction; the quotient is only
	// computed once a whole bubble has accrued (fb > 0 iff accum >= den).
	c.frontendAccum += n * bubbleNum
	if c.frontendAccum >= bubbleDen {
		fb := c.frontendAccum / bubbleDen
		c.frontendAccum -= fb * bubbleDen
		c.clock += memsys.Cycles(fb)
		c.breakdown.Frontend += memsys.Cycles(fb)
	}
}

// reap removes completed accesses from the outstanding window.
func (c *Core) reap() {
	w := c.outstanding[:0]
	for _, t := range c.outstanding {
		if t > c.clock {
			w = append(w, t)
		}
	}
	c.outstanding = w
}

// earliest returns the soonest completion among outstanding accesses.
func (c *Core) earliest() memsys.Cycles {
	e := c.outstanding[0]
	for _, t := range c.outstanding[1:] {
		if t < e {
			e = t
		}
	}
	return e
}

// Mem accounts one memory access with the timing outcome res, issued at
// the core's current clock. PipelinedThreshold governs which accesses are
// treated as fully hidden (L1-class hits).
const pipelinedThreshold = 4

// Mem advances the core's clock according to res.
func (c *Core) Mem(res memsys.Result) {
	c.instructions++
	// Issue slot.
	c.clock++
	c.breakdown.Retiring++
	if res.Offloaded {
		// Fire-and-forget PISC offload: only the (already charged)
		// issue cost, plus any backpressure folded into Latency by the
		// hierarchy when the PISC queue is saturated.
		if res.Latency > 0 {
			c.clock += res.Latency
			c.breakdown.MemoryBound += res.Latency
			c.OffloadStall += res.Latency
		}
		return
	}
	if res.Latency <= pipelinedThreshold {
		// L1-class hit: fully pipelined.
		return
	}
	if res.Blocking {
		c.clock += res.Latency
		c.breakdown.MemoryBound += res.Latency
		c.BlockingStall += res.Latency
		return
	}
	// Overlappable miss: occupy a window slot, stalling only when the
	// window is full.
	c.reap()
	if len(c.outstanding) >= maxMLP {
		e := c.earliest()
		if e > c.clock {
			c.breakdown.MemoryBound += e - c.clock
			c.WindowStall += e - c.clock
			c.clock = e
		}
		c.reap()
	}
	c.outstanding = append(c.outstanding, c.clock+res.Latency)
}

// FoldPipelined accounts n pipelined memory accesses in one step. A
// pipelined access — Result.Latency at or below pipelinedThreshold — costs
// exactly one retired instruction, one issue cycle, and one retiring
// cycle; Mem's early return touches nothing else (no window, no stalls,
// no frontend accrual). The machine's run-fold batching uses this to
// replay a run of same-line L1 hits in bulk with bit-identical accounting.
func (c *Core) FoldPipelined(n uint64) {
	c.instructions += n
	c.clock += memsys.Cycles(n)
	c.breakdown.Retiring += memsys.Cycles(n)
}

// DrainWindow stalls until every outstanding access has completed; used at
// parallel-region barriers.
func (c *Core) DrainWindow() {
	for _, t := range c.outstanding {
		if t > c.clock {
			c.breakdown.MemoryBound += t - c.clock
			c.DrainStall += t - c.clock
			c.clock = t
		}
	}
	c.outstanding = c.outstanding[:0]
}
