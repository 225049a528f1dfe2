package memsys

// Queue models contention for a serial resource (DRAM channel, crossbar
// output port, PISC sequencer) with a utilization-based delay model: the
// resource tracks its demanded service time over a sliding window of
// simulated time and charges each request an M/D/1-style queueing delay
//
//	wait = service * u / (2 * (1 - u))
//
// where u is the smoothed utilization. This form is robust to the bounded
// clock skew between simulated cores (an absolute busy-until model charges
// the skew itself as queueing), degrades smoothly from idle to saturated,
// and enforces an effective bandwidth limit: near saturation each request
// pays ~50 service times, throttling the requesters.
//
// Enqueue is the single hottest arithmetic leaf of the simulator's miss
// path (every NoC message and every DRAM access passes through it), so
// the utilization-dependent terms of the delay expression are computed
// once per measurement window instead of once per call:
//
//   - denom caches 2*(1-util). The per-call expression stays exactly
//     float64(service) * util / denom, the same operations in the same
//     order as the original 2*(1-u) inline form, so every returned wait
//     is bit-identical.
//   - foldGate caches util * (queueWindow/4). The fold of the current
//     (incomplete) window only matters when its utilization exceeds the
//     smoothed estimate; since the fold span is always in
//     [queueWindow/4, queueWindow) and both scalings are by powers of
//     two (exact in float64), work/span > util is impossible whenever
//     float64(work) <= foldGate — rounding to nearest is monotone — and
//     the per-call division is skipped without changing any outcome.
//   - an idle resource (util == 0 and an empty or immature current
//     window) returns 0 through integer comparisons alone.
//   - the smoothed-path wait is a pure function of (service, util), and
//     each queue sees only a handful of distinct service values (a DRAM
//     channel always ServiceCyclesPerLine, a NoC port the ctrl/word and
//     line flit counts), so the last two (service, wait) pairs are
//     memoized per window: a memo hit returns the identical Cycles value
//     through integer compares, no float arithmetic at all.
type Queue struct {
	horizon     Cycles  // furthest simulated time observed
	windowStart Cycles  // start of the current measurement window
	work        Cycles  // service time demanded in the current window
	util        float64 // smoothed utilization estimate in [0, maxUtil]
	// denom and foldGate are pure functions of util, refreshed whenever
	// util changes (rollWindow) and carried through snapshots by value.
	denom    float64 // 2 * (1 - util)
	foldGate float64 // util * (queueWindow/4)
	// svc1/wait1 and svc2/wait2 memoize the smoothed-path delay for the
	// last two distinct service values of the current window (invalidated
	// by rollWindow). A hit returns the exact Cycles the expression below
	// would produce — same inputs, same pure function.
	svc1, wait1 Cycles
	svc2, wait2 Cycles
}

const (
	// queueWindow is the utilization measurement window in cycles.
	queueWindow = 2048
	// maxUtil caps the utilization estimate; at the cap each request
	// waits ~50 service times.
	maxUtil = 0.99
)

// Enqueue records a request arriving at time now needing service cycles of
// the resource, and returns its queueing delay before service begins.
func (q *Queue) Enqueue(now, service Cycles) (wait Cycles) {
	if now > q.horizon {
		q.horizon = now
	}
	q.work += service
	span := q.horizon - q.windowStart
	if span >= queueWindow {
		q.rollWindow(span)
		span = 0
	}
	// Fold in the current (incomplete) window once it has enough span to
	// be meaningful, so saturation within a window is felt immediately.
	// The foldGate pre-filter (see type comment) proves work/span cannot
	// exceed util without the division.
	if span >= queueWindow/4 && float64(q.work) > q.foldGate {
		cur := float64(q.work) / float64(span)
		if cur > 1 {
			cur = 1
		}
		if cur > q.util {
			if cur > maxUtil {
				cur = maxUtil
			}
			return Cycles(float64(service) * cur / (2 * (1 - cur)))
		}
	}
	if q.util == 0 {
		// Idle resource: the delay formula is exactly zero, skip the
		// floating-point work (this is the common case off saturation).
		return 0
	}
	if service == q.svc1 {
		return q.wait1
	}
	if service == q.svc2 {
		return q.wait2
	}
	w := Cycles(float64(service) * q.util / q.denom)
	q.svc2, q.wait2 = q.svc1, q.wait1
	q.svc1, q.wait1 = service, w
	return w
}

// rollWindow closes the measurement window spanning span cycles: the
// utilization estimate absorbs the window's demand with exponential
// smoothing, and the cached utilization-dependent terms are refreshed.
func (q *Queue) rollWindow(span Cycles) {
	u := float64(q.work) / float64(span)
	if u > 1 {
		u = 1
	}
	q.util = 0.5*q.util + 0.5*u
	if q.util > maxUtil {
		q.util = maxUtil
	}
	q.windowStart = q.horizon
	q.work = 0
	q.denom = 2 * (1 - q.util)
	q.foldGate = q.util * (queueWindow / 4)
	// util changed: the memoized (service, wait) pairs are stale. A zero
	// service entry is safe to leave armed — a service-0 request's true
	// wait is exactly 0 on any utilization.
	q.svc1, q.wait1 = 0, 0
	q.svc2, q.wait2 = 0, 0
}

// Utilization returns the smoothed utilization estimate.
func (q *Queue) Utilization() float64 { return q.util }
