// Package pisc implements the Processing-In-SCratchpad engine of paper
// §V.B (Figure 9): a microcoded ALU attached to each scratchpad slice that
// executes the atomic update operations offloaded by the cores, plus the
// timing model for offload queueing and per-vertex blocking.
//
// The functional side (Op, Microcode, Engine.Execute) really computes the
// atomic operations — the simulator's algorithm results flow through it —
// and the timing side (Engine.Offload) charges cycles.
package pisc

import (
	"fmt"
	"math"

	"omega/internal/memsys"
	"omega/internal/stats"
)

// Op enumerates the ALU operations of Figure 9 / Table II.
type Op uint8

const (
	// OpNop performs no update (used for configuration testing).
	OpNop Op = iota
	// OpFPAdd is floating-point accumulate (PageRank).
	OpFPAdd
	// OpUnsignedCompareSwap writes the operand if the destination is the
	// sentinel "unvisited" value (BFS parent assignment).
	OpUnsignedCompareSwap
	// OpSignedMin keeps the minimum of destination and operand (SSSP,
	// Radii-style distance relaxation).
	OpSignedMin
	// OpSignedAdd is integer accumulate (BC path counting, TC, KC).
	OpSignedAdd
	// OpOr is bitwise OR (Radii's visited-set union).
	OpOr
	// OpBoolComp sets the destination to the operand when the operand is
	// smaller (bool/flag compare-update used with SSSP's visited tags).
	OpBoolComp
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpNop:
		return "nop"
	case OpFPAdd:
		return "fp-add"
	case OpUnsignedCompareSwap:
		return "unsigned-cas"
	case OpSignedMin:
		return "signed-min"
	case OpSignedAdd:
		return "signed-add"
	case OpOr:
		return "or"
	case OpBoolComp:
		return "bool-comp"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Latency returns the ALU occupancy of the operation in cycles; FP add is
// the long pole (the PISC's area/power is dominated by its FP adder,
// paper §X.B).
func (o Op) Latency() memsys.Cycles {
	switch o {
	case OpFPAdd:
		return 3
	case OpNop:
		return 1
	default:
		return 1
	}
}

// MicroOp is one step of a microcode routine (Figure 9's microcode
// registers hold sequences of these).
type MicroOp uint8

const (
	// UReadSP reads the vertex's property from the scratchpad.
	UReadSP MicroOp = iota
	// UALU applies the configured ALU operation.
	UALU
	// UWriteSP writes the result back to the scratchpad.
	UWriteSP
	// USetActiveDense sets the vertex's dense active-list bit in-SP.
	USetActiveDense
	// UAppendActiveSparse emits the vertex ID to the sparse active list
	// in memory via the local L1 (paper §V.B).
	UAppendActiveSparse
)

// Microcode is a routine stored in the PISC's microcode registers.
type Microcode struct {
	// Name labels the routine ("pagerank-update").
	Name string
	// Op is the ALU operation the UALU step applies.
	Op Op
	// Steps is the executed sequence.
	Steps []MicroOp
}

// StandardMicrocode returns the canonical offloaded-update routine for an
// ALU op: read, compute, write, plus dense active-list maintenance when
// track is set.
func StandardMicrocode(name string, op Op, trackDense, trackSparse bool) Microcode {
	steps := []MicroOp{UReadSP, UALU, UWriteSP}
	if trackDense {
		steps = append(steps, USetActiveDense)
	}
	if trackSparse {
		steps = append(steps, UAppendActiveSparse)
	}
	return Microcode{Name: name, Op: op, Steps: steps}
}

// Latency returns the routine's total PISC occupancy.
func (m Microcode) Latency() memsys.Cycles {
	var t memsys.Cycles
	for _, s := range m.Steps {
		switch s {
		case UReadSP, UWriteSP:
			t += memsys.SPLat
		case UALU:
			t += m.Op.Latency()
		case USetActiveDense:
			// Folded into the write port: 1 cycle.
			t++
		case UAppendActiveSparse:
			// Queue the ID into the L1-bound store buffer.
			t++
		}
	}
	if t == 0 {
		t = 1
	}
	return t
}

// Occupancy returns the engine's initiation interval for the routine: the
// sequencer pipelines scratchpad reads/writes against the ALU, so a new
// update can start every max(SPLat, aluLat) cycles even though each one
// takes Latency() end to end.
func (m Microcode) Occupancy() memsys.Cycles {
	return max(m.Op.Latency(), memsys.SPLat)
}

// Value is the 64-bit payload of an atomic update. Interpretation depends
// on the Op (float64 bits for OpFPAdd, signed/unsigned integers for the
// rest).
type Value uint64

// FloatValue wraps a float64.
func FloatValue(f float64) Value { return Value(math.Float64bits(f)) }

// Float unwraps a float64.
func (v Value) Float() float64 { return math.Float64frombits(uint64(v)) }

// IntValue wraps an int64.
func IntValue(i int64) Value { return Value(i) }

// Int unwraps an int64.
func (v Value) Int() int64 { return int64(v) }

// Apply executes the ALU operation functionally: it combines the current
// destination value with the operand and reports the new value and whether
// the destination changed (the "changed" outcome drives active-list
// updates in the framework).
func (o Op) Apply(dst, operand Value) (newVal Value, changed bool) {
	switch o {
	case OpNop:
		return dst, false
	case OpFPAdd:
		nv := FloatValue(dst.Float() + operand.Float())
		return nv, nv != dst
	case OpUnsignedCompareSwap:
		// Compare-and-swap against the "unset" sentinel ^0.
		if uint64(dst) == ^uint64(0) {
			return operand, true
		}
		return dst, false
	case OpSignedMin:
		if operand.Int() < dst.Int() {
			return operand, true
		}
		return dst, false
	case OpSignedAdd:
		nv := IntValue(dst.Int() + operand.Int())
		return nv, nv != dst
	case OpOr:
		nv := dst | operand
		return nv, nv != dst
	case OpBoolComp:
		if uint64(operand) < uint64(dst) {
			return operand, true
		}
		return dst, false
	}
	panic(fmt.Sprintf("pisc: unknown op %d", uint8(o)))
}

// queueDepth is the number of pending offloads a PISC absorbs before
// back-pressuring the sender (network-interface queue).
const queueDepth = 16

// Engine models one PISC's timing: a single-server queue (the sequencer
// serializes routines, which also provides the per-vertex blocking of
// §V.A — all requests to the engine are ordered). Not safe for concurrent
// use.
type Engine struct {
	microcode Microcode
	queue     memsys.Queue

	// Stats
	Executed  stats.Counter
	BusyTime  stats.Counter
	Backpress stats.Counter // cycles senders spent back-pressured
}

// NewEngine builds a PISC engine.
func NewEngine() *Engine { return &Engine{} }

// LoadMicrocode installs the routine (the store sequence generated by the
// translation tool, §V.F).
func (e *Engine) LoadMicrocode(m Microcode) { e.microcode = m }

// Microcode returns the installed routine.
func (e *Engine) Microcode() Microcode { return e.microcode }

// Offload enqueues one atomic update arriving at the engine at time
// arrival. It returns the sender-visible stall (nonzero only when the
// queue is saturated) and the completion time of the update.
func (e *Engine) Offload(arrival memsys.Cycles) (senderStall memsys.Cycles, done memsys.Cycles) {
	occ := e.microcode.Occupancy()
	lat := e.microcode.Latency()
	wait := e.queue.Enqueue(arrival, occ)
	// The sender only stalls when the (finite) queue is full, and then
	// only until enough of it drains to accept the new entry.
	limit := queueDepth * occ
	if wait > limit {
		senderStall = wait - limit
		if senderStall > limit {
			senderStall = limit
		}
		e.Backpress.Add(uint64(senderStall))
	}
	e.Executed.Inc()
	e.BusyTime.Add(uint64(occ))
	return senderStall, arrival + wait + lat
}
