package memsys

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// The Enqueue golden pins the queue's M/D/1 delay arithmetic directly:
// every (now, service) sample of a deterministic sweep is committed with
// its returned wait and the exact bits of the smoothed utilization
// (hex float), so a change to the expression order or the window
// bookkeeping is diffed at the first diverging call instead of only
// through the suite-level goldens. Regenerate (after a deliberate model
// change only) with:
//
//	go test ./internal/memsys -run TestQueueEnqueueGolden -update-queue-golden
var updateQueueGolden = flag.Bool("update-queue-golden", false,
	"rewrite testdata/queue_enqueue_golden.tsv from the current implementation")

// queueGoldenSweep drives fresh queues through load patterns covering
// every arithmetic path: an idle resource, sub-window folding,
// window-boundary smoothing, the utilization cap, and out-of-order
// arrival times (bounded core clock skew).
func queueGoldenSweep() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# pattern\ti\tnow\tservice\twait\tutil\n")
	type pattern struct {
		name string
		n    int
		at   func(i int) (now, service Cycles)
	}
	patterns := []pattern{
		// Widely spaced requests: utilization never leaves zero.
		{"idle", 64, func(i int) (Cycles, Cycles) {
			return Cycles(i) * 100000, 10
		}},
		// 1% utilization: smoothing stays tiny but nonzero.
		{"light", 768, func(i int) (Cycles, Cycles) {
			return Cycles(i) * 100, 1
		}},
		// 25% utilization, mixed service times.
		{"quarter", 768, func(i int) (Cycles, Cycles) {
			return Cycles(i) * 40, Cycles(8 + 3*(i%2))
		}},
		// Just below saturation (11 cycles of service every 12).
		{"heavy", 768, func(i int) (Cycles, Cycles) {
			return Cycles(i) * 12, 11
		}},
		// 4x oversubscribed: exercises both clamps.
		{"saturated", 768, func(i int) (Cycles, Cycles) {
			return Cycles(i) * 10, 40
		}},
		// Alternating bursts and quiet: windows swing between extremes.
		{"burst", 1024, func(i int) (Cycles, Cycles) {
			base := Cycles(i/128) * 10000
			if i%128 < 48 {
				return base + Cycles(i%128)*2, 16
			}
			return base + 96 + Cycles(i%128-48)*250, 4
		}},
		// Out-of-order arrivals: a far-future requester followed by
		// requesters in its past (now < horizon path).
		{"skew", 512, func(i int) (Cycles, Cycles) {
			if i%16 == 0 {
				return 1000000 + Cycles(i)*1000, 10
			}
			return Cycles(i) * 37, 10
		}},
	}
	for _, p := range patterns {
		var q Queue
		for i := 0; i < p.n; i++ {
			now, svc := p.at(i)
			w := q.Enqueue(now, svc)
			fmt.Fprintf(&b, "%s\t%d\t%d\t%d\t%d\t%s\n", p.name, i, now, svc, w,
				strconv.FormatFloat(q.Utilization(), 'x', -1, 64))
		}
	}
	return b.Bytes()
}

func TestQueueEnqueueGolden(t *testing.T) {
	path := filepath.Join("testdata", "queue_enqueue_golden.tsv")
	got := queueGoldenSweep()
	if *updateQueueGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with -update-queue-golden): %v", path, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("queue arithmetic diverged from golden at line %d:\ngot:  %s\nwant: %s",
				i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("queue golden length changed: got %d lines, want %d", len(gl), len(wl))
}

// TestQueueWaitNeverNegative pins that the delay expression can never go
// negative (which, through the Cycles conversion, would appear as an
// enormous wait): across randomized request streams every wait stays
// within the analytic maximum of ~50 service times set by maxUtil.
func TestQueueWaitNeverNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var q Queue
		var now Cycles
		for i := 0; i < 4000; i++ {
			gap := Cycles(rng.Intn(200))
			svc := Cycles(1 + rng.Intn(64))
			if rng.Intn(8) == 0 && now > 5000 {
				// Out-of-order arrival in the recent past.
				w := q.Enqueue(now-5000, svc)
				if max := Cycles(50) * svc; w > max {
					t.Fatalf("trial %d: skewed wait %d exceeds analytic max %d", trial, w, max)
				}
				continue
			}
			now += gap
			w := q.Enqueue(now, svc)
			if max := Cycles(50) * svc; w > max {
				t.Fatalf("trial %d i=%d: wait %d exceeds analytic max %d (service %d)",
					trial, i, w, max, svc)
			}
		}
	}
}

// TestQueueWaitMonotoneInUtil pins that a higher smoothed utilization
// never yields a smaller wait for the same service demand: u/(2(1-u)) is
// increasing on [0, maxUtil], and the implementation must preserve that
// through its caching of utilization-dependent terms.
func TestQueueWaitMonotoneInUtil(t *testing.T) {
	// Drive queues to increasing utilization levels with identical
	// request spacing, then probe each with one identical request just
	// after a window boundary (span below the fold threshold, so the
	// wait reflects only the smoothed utilization).
	levels := []Cycles{1, 5, 10, 25, 50, 80, 95}
	var lastWait Cycles
	var lastUtil float64
	for li, svc := range levels {
		var q Queue
		var now Cycles
		for i := 0; i < 20000; i++ {
			now += 100
			q.Enqueue(now, svc) // svc per 100 cycles = svc% utilization
		}
		w := q.Enqueue(now+1, 100)
		u := q.Utilization()
		if li > 0 {
			if u < lastUtil {
				t.Fatalf("utilization not monotone in load: %v then %v", lastUtil, u)
			}
			if w < lastWait {
				t.Fatalf("wait not monotone in utilization: util %v -> wait %d, then util %v -> wait %d",
					lastUtil, lastWait, u, w)
			}
		}
		lastWait, lastUtil = w, u
	}
	if lastWait == 0 {
		t.Fatal("95% utilization probe should wait")
	}
}

// TestQueueSmoothingConverges pins the window smoothing: under constant
// load the utilization estimate converges to the demanded level and
// stays there (each window halves the distance; after many windows the
// estimate must sit within a tight band).
func TestQueueSmoothingConverges(t *testing.T) {
	for _, tc := range []struct {
		name   string
		gap    Cycles
		svc    Cycles
		target float64
	}{
		{"10%", 100, 10, 0.10},
		{"50%", 20, 10, 0.50},
		{"90%", 100, 90, 0.90},
	} {
		var q Queue
		var now Cycles
		// 200 windows of constant demand.
		for now < 200*2048 {
			now += tc.gap
			q.Enqueue(now, tc.svc)
		}
		u := q.Utilization()
		if d := u - tc.target; d > 0.02 || d < -0.02 {
			t.Fatalf("%s load: smoothed utilization %v has not converged to %v",
				tc.name, u, tc.target)
		}
		// Convergence is stable: another 50 windows stay in the band.
		for now < 250*2048 {
			now += tc.gap
			q.Enqueue(now, tc.svc)
		}
		if d := q.Utilization() - tc.target; d > 0.02 || d < -0.02 {
			t.Fatalf("%s load: utilization %v drifted after convergence", tc.name, q.Utilization())
		}
	}
}

// Utilization returns the smoothed utilization estimate.
func (q *Queue) Utilization() float64 { return q.util }
