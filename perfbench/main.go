// Command perfbench is the repository benchmark. It runs one named
// workload in a single process through the simulator's public entry
// points, checks every output, and prints one JSON result line.
//
//	perfbench -workload powerlaw-atomic -seed 42 -seconds 20 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics of a separate traced run (CPU profile
// plus an iteration-timing sink). Timings are scaled to a reference host
// speed by a calibration loop timed beside every unit of work (calib.go).
// perfbench/NOTES.md says which layer metric moves which end-to-end
// metric; perfbench/run.py builds this command and forwards its flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"omega/internal/experiments"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
func (m metrics) count(name string, v uint64)             { m.set(name, float64(v), "count") }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// workload is one set of inputs the benchmark runs, closed-loop with a
// single client: units of work run back to back on one goroutine.
type workload interface {
	// setup builds the inputs from the seed and reports the host seconds
	// spent generating graphs and reordering them.
	setup() (genS, reorderS float64)
	// threads is the number of goroutines a rep keeps busy.
	threads() int
	// rep performs the workload's fixed unit of work once on fresh
	// machines (modelled caches start empty), calling tick between the
	// cells it runs. traced attaches the iteration-timing sink where the
	// workload drives machines itself.
	rep(traced bool, tick func()) repResult
	// verify runs the output checks too costly for the timed phase.
	verify() (attempted, failed int)
	// report adds the workload's deterministic counts and returns the
	// simulated accesses one rep issues.
	report(out metrics) (accesses uint64)
}

// repResult is what one unit of work reports besides its timings.
type repResult struct {
	attempted, failed int
	// fingerprint summarises every deterministic output of the rep; it
	// must be identical across the reps of a run.
	fingerprint string
	// hostS holds per-layer host seconds measured around outer calls.
	hostS map[string]float64
	// iterMs holds the host milliseconds of each simulated iteration.
	iterMs []float64
}

// phase collects the reps of one timed phase: their host times without
// the calibration loops, the same times at the reference speed, and the
// loop's mean CPU time in each rep.
type phase struct {
	wall, cpu       []float64
	wallRef, cpuRef []float64
	loopMs          []float64
	hostS           map[string][]float64
	iterMs          []float64
	attempted       int
	failed          int
}

// measure repeats the unit of work until the phase has lasted seconds.
// Every rep starts from a collected heap so one rep's garbage does not
// bill the next; cal times the calibration loop around its cells. A
// first rep warms the heap and the host's caches up: its outputs are
// checked, its times dropped.
func measure(w workload, cal *calibrator, seconds float64, traced bool, steal *stealMeter, fp *string) phase {
	p := phase{hostS: map[string][]float64{}}
	steal.begin()
	defer steal.end()
	p.rep(w, cal, traced, fp)
	p.wall, p.wallRef, p.cpu, p.cpuRef, p.loopMs, p.iterMs = nil, nil, nil, nil, nil, nil
	clear(p.hostS)
	start := time.Now()
	for len(p.cpu) == 0 || time.Since(start).Seconds() < seconds {
		p.rep(w, cal, traced, fp)
	}
	return p
}

// rep runs the unit of work once and records it.
func (p *phase) rep(w workload, cal *calibrator, traced bool, fp *string) {
	runtime.GC()
	cal.begin()
	r, err := safeRep(w, traced, cal.tick)
	raw, ref := cal.end()
	p.wall, p.wallRef = append(p.wall, raw.wall), append(p.wallRef, ref.wall)
	p.cpu, p.cpuRef = append(p.cpu, raw.cpu), append(p.cpuRef, ref.cpu)
	p.loopMs = append(p.loopMs, cal.meanLoopCPU()*1e3)
	fmt.Fprintf(os.Stderr, "perfbench: rep %d cpu %.3f s (%.3f s at reference speed) wall %.3f s (%.3f s) loop %.2f ms\n",
		len(p.cpu), raw.cpu, ref.cpu, raw.wall, ref.wall, p.loopMs[len(p.loopMs)-1])
	p.attempted += r.attempted
	p.failed += r.failed
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		p.attempted++
		p.failed++
		return
	}
	if *fp == "" {
		*fp = r.fingerprint
	} else {
		p.attempted++
		if r.fingerprint != *fp {
			fmt.Fprintln(os.Stderr, "perfbench: deterministic outputs differ between reps")
			p.failed++
		}
	}
	for k, v := range r.hostS {
		p.hostS[k] = append(p.hostS[k], v)
	}
	p.iterMs = append(p.iterMs, r.iterMs...)
}

func safeRep(w workload, traced bool, tick func()) (r repResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("rep panicked: %v", v)
		}
	}()
	return w.rep(traced, tick), nil
}

func safeVerify(w workload) (attempted, failed int) {
	defer func() {
		if v := recover(); v != nil {
			fmt.Fprintln(os.Stderr, "perfbench: verification panicked:", v)
			attempted, failed = attempted+1, failed+1
		}
	}()
	return w.verify()
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank quantile of xs (the mean of the middle
// pair for an even-length median; 0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// A run builds its inputs at least minSetupRounds times and for at least
// a sixth of the timed phase, so the cheap set-ups get enough rounds for
// a steady median; setup_s is that median at the reference speed, and the
// last build is the one the timed phase uses.
const minSetupRounds = 7

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "suite-s12":
		scale := 12
		if o.smoke {
			scale = 9
		}
		return newSuite(scale, o.seed, runtime.NumCPU()), nil
	case "powerlaw-atomic":
		scale := 14
		if o.smoke {
			scale = 9
		}
		return newCells(scale, o.seed, []string{"PageRank", "SSSP", "Radii", "CC"})
	case "powerlaw-tc":
		scale := 12
		if o.smoke {
			scale = 8
		}
		return newCells(scale, o.seed, []string{"TC"})
	}
	return nil, fmt.Errorf("unknown workload %q (want suite-s12, powerlaw-atomic or powerlaw-tc)", o.workload)
}

// run executes one benchmark run and returns its result and host record.
func run(o options) (result, hostContext, error) {
	w, err := newWorkload(o)
	if err != nil {
		return result{}, hostContext{}, err
	}
	cal, err := newCalibrator(w.threads())
	if err != nil {
		return result{}, hostContext{}, err
	}
	defer cal.close()
	var gens, reorders, setups []float64
	for start := time.Now(); len(setups) < minSetupRounds || time.Since(start).Seconds() < o.seconds/6; {
		runtime.GC()
		cal.begin()
		g, r := w.setup()
		raw, ref := cal.end()
		gens, reorders = append(gens, g), append(reorders, r)
		setups = append(setups, (g+r)*ref.wall/raw.wall)
	}

	var steal stealMeter
	var fp string
	out := metrics{}
	res := result{Metrics: out}
	tally := func(attempted, failed int) {
		res.Attempted += attempted
		res.Failed += failed
	}
	var loopMs float64
	if !o.trace {
		resetPeakRSS()
		p := measure(w, cal, o.seconds, false, &steal, &fp)
		out.set("peak_rss_mib", peakRSSMiB()-cal.residentMiB(), "MiB")
		tally(p.attempted, p.failed)
		tally(safeVerify(w))
		out.set("cpu_ref_s", median(p.cpuRef), "s")
		out.set("wall_ref_s", median(p.wallRef), "s")
		out.set("setup_s", median(setups), "s")
		loopMs = median(p.loopMs)
	} else {
		plain := measure(w, cal, o.seconds/2, false, &steal, &fp)
		tally(plain.attempted, plain.failed)
		prof, err := os.CreateTemp("", "perfbench-*.pprof")
		if err != nil {
			return result{}, hostContext{}, err
		}
		defer os.Remove(prof.Name())
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return result{}, hostContext{}, err
		}
		traced := measure(w, cal, o.seconds/2, true, &steal, &fp)
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return result{}, hostContext{}, err
		}
		tally(traced.attempted, traced.failed)
		tally(safeVerify(w))
		accesses := w.report(out)
		out.set("sim_maccess_per_cpu_s", float64(accesses)/1e6/median(plain.cpu), "Maccess/s")

		out.set("cpu_s", median(plain.cpu), "s")
		out.set("wall_s", median(plain.wall), "s")
		loopMs = median(plain.loopMs)
		out.set("calibration.loop_ms", loopMs, "ms")
		out.set("graph.gen.host_s", median(gens), "s")
		out.set("graph.reorder.host_s", median(reorders), "s")
		for _, name := range hostLayers() {
			out.set(name, median(traced.hostS[name]), "s")
		}
		out.set("iteration.host_ms_p50", quantile(traced.iterMs, 0.5), "ms")
		out.set("iteration.host_ms_p90", quantile(traced.iterMs, 0.9), "ms")
		out.count("iteration.samples", uint64(len(traced.iterMs)))
		out.set("trace.overhead_ratio", median(traced.cpuRef)/median(plain.cpuRef), "ratio")
		shares, samples, err := selfShares(prof.Name())
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: profile:", err)
			tally(1, 1)
		}
		for _, l := range profileLayers {
			out.set(l+".self_share", shares[l], "ratio")
		}
		out.count("profile.samples", samples)
	}
	res.Correct = res.Failed == 0
	host := steal.context()
	host.LoopMs = loopMs
	return res, host, nil
}

// hostLayers names the per-layer host-time metrics measured around outer
// calls: the per-cell calls of the cell workloads and one wall time per
// registered experiment of the suite. A workload reports 0 for the calls
// it does not make itself.
func hostLayers() []string {
	names := []string{"core.new_machine.host_s", "ligra.bind.host_s", "algorithms.run.host_s"}
	for _, s := range experiments.Registry() {
		names = append(names, experimentWallMetric(s.ID))
	}
	return names
}

// experimentWallMetric names an experiment's wall-time metric:
// "Figure 4a" becomes experiments.wall_s.figure_4a.
func experimentWallMetric(id string) string {
	return "experiments.wall_s." + strings.ReplaceAll(strings.ToLower(id), " ", "_")
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "suite-s12, powerlaw-atomic or powerlaw-tc")
	flag.Uint64Var(&o.seed, "seed", 42, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = *trace == 1
	res, host, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	hostLine, _ := json.Marshal(map[string]hostContext{"host": host})
	fmt.Println(string(hostLine))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
