package memsys

// Queue models contention for a serial resource (DRAM channel, crossbar
// output port, PISC sequencer) with a utilization-based delay model: the
// resource tracks its demanded service time over a sliding window of
// simulated time and charges each request an M/D/1-style queueing delay
//
//	wait = service * u / (2 * (1 - u))
//
// where u is the smoothed utilization or, if larger, that of the open
// window (capped at maxUtil). This form is robust to the bounded
// clock skew between simulated cores (an absolute busy-until model charges
// the skew itself as queueing), degrades smoothly from idle to saturated,
// and enforces an effective bandwidth limit: near saturation each request
// pays ~50 service times, throttling the requesters.
type Queue struct {
	horizon     Cycles  // furthest simulated time observed
	windowStart Cycles  // start of the current measurement window
	work        Cycles  // service time demanded in the current window
	util        float64 // smoothed utilization estimate in [0, maxUtil]
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
	u := q.util
	if span >= queueWindow/4 {
		cur := float64(q.work) / float64(span)
		if cur > 1 {
			cur = 1
		}
		if cur > u {
			u = min(cur, maxUtil)
		}
	}
	return Cycles(float64(service) * u / (2 * (1 - u)))
}

// rollWindow closes the measurement window spanning span cycles: the
// utilization estimate absorbs the window's demand with exponential
// smoothing.
func (q *Queue) rollWindow(span Cycles) {
	u := float64(q.work) / float64(span)
	if u > 1 {
		u = 1
	}
	// The explicit conversions round each product, so no architecture
	// fuses them into a multiply-add and the estimate is the same bits
	// everywhere.
	q.util = float64(0.5*q.util) + float64(0.5*u)
	if q.util > maxUtil {
		q.util = maxUtil
	}
	q.windowStart = q.horizon
	q.work = 0
}
