package core

import (
	"context"
	"fmt"
)

// Cancelled is the panic value the Machine's run loops unwind with when an
// attached context is cancelled (AttachContext). A cooperative cancel is
// not a simulator bug: harnesses recover it (IsCancelled) and report the
// run as cancelled rather than crashed.
type Cancelled struct {
	// Err is the context's error at the moment the cancel was observed
	// (context.Canceled or context.DeadlineExceeded).
	Err error
}

// Error makes *Cancelled an error, so a recovered value formats usefully.
func (c *Cancelled) Error() string {
	return fmt.Sprintf("simulation cancelled: %v", c.Err)
}

// Unwrap exposes the underlying context error to errors.Is.
func (c *Cancelled) Unwrap() error { return c.Err }

// IsCancelled reports whether a recovered panic value is a cooperative
// cancellation raised by a Machine run loop.
func IsCancelled(r any) bool {
	_, ok := r.(*Cancelled)
	return ok
}

// cancelCheckMask throttles cancellation polls: the scheduling loop checks
// the context once every cancelCheckMask+1 items, keeping the hot path
// free of channel operations while still bounding cancel latency to a few
// thousand simulated accesses.
const cancelCheckMask = 1023

// AttachContext arms cooperative cancellation: once ctx is done, the
// machine's run loops (ParallelForGrain, BeginIteration) panic
// with *Cancelled instead of running the simulation to completion, so a
// watchdog or SIGINT actually stops in-flight work rather than abandoning
// the goroutine driving it. nil (or a context that is never cancelled)
// leaves the loops check-free in effect; the polls themselves never touch
// simulation state or fault-PRNG streams, so attaching a context keeps
// results bit-identical.
func (m *Machine) AttachContext(ctx context.Context) {
	if ctx == nil {
		m.ctx, m.ctxDone = nil, nil
		return
	}
	m.ctx = ctx
	m.ctxDone = ctx.Done()
}

// checkCancel is the throttled poll used on the per-item hot path.
func (m *Machine) checkCancel() {
	if m.ctxDone == nil {
		return
	}
	if m.cancelTick++; m.cancelTick&cancelCheckMask != 0 {
		return
	}
	m.pollCancel()
}

// checkCancelNow polls unconditionally; iteration boundaries use it so
// cancellation is observed even by loops too short to trip the throttled
// counter.
func (m *Machine) checkCancelNow() {
	if m.ctxDone == nil {
		return
	}
	m.pollCancel()
}

func (m *Machine) pollCancel() {
	select {
	case <-m.ctxDone:
		panic(&Cancelled{Err: m.ctx.Err()})
	default:
	}
}
