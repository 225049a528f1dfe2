// Command omega-bench regenerates the paper's tables and figures
// (DESIGN.md §4) and prints them as aligned text, optionally writing
// TSV files per experiment.
//
// The suite runs on a bounded worker pool (-parallel, default GOMAXPROCS)
// over a shared deterministic dataset cache, so independent experiments
// overlap while graphs common to several runners are generated once. A
// cross-experiment simulation-cell cache (DESIGN.md §12) additionally
// dedups identical (machine config, dataset, workload) simulations
// across experiments — inspect with -cell-stats. With -sched-hints,
// per-experiment wall times from the previous run schedule the pool
// longest-job-first.
// Output ordering is unchanged from the sequential harness: tables are
// flushed in registry order as soon as every earlier experiment has
// finished, and live per-experiment progress goes to stderr.
//
// The suite is hardened: every runner executes under a watchdog timeout
// with panic recovery, so one failing experiment reports a failed table
// and the suite completes; Ctrl-C abandons in-flight experiments, fails
// the queued rest, and still prints and writes everything collected.
//
// Usage:
//
//	omega-bench                     # full suite, parallelism = GOMAXPROCS
//	omega-bench -parallel 1         # sequential (identical tables)
//	omega-bench -scale 14           # closer-to-paper regime (slower)
//	omega-bench -only "Figure 14"   # one experiment
//	omega-bench -campaign           # only the Resilience R2 fault campaign
//	omega-bench -fault-seed 7       # re-key the campaign's fault streams
//	omega-bench -tsv results/       # also write TSV files
//	omega-bench -timeout 2m         # per-experiment watchdog
//	omega-bench -metrics out.jsonl  # stream per-iteration metric samples
//	omega-bench -json suite.json    # machine-readable suite summary
//	omega-bench -cell-stats         # cell-cache hit/dedup breakdown
//	omega-bench -compare old.json   # min/mean deltas vs a prior bench JSON
//	omega-bench -sched-hints h.json # longest-job-first suite scheduling
//	omega-bench -cpuprofile cpu.out # profile the suite (go tool pprof)
//	omega-bench -memprofile mem.out # end-of-suite heap profile
//	omega-bench -trace exec.trace   # execution trace (go tool trace)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strings"
	"time"

	"omega/internal/experiments"
	"omega/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "omega-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scale    = flag.Int("scale", 13, "log2 vertex count for generated datasets")
		seed     = flag.Uint64("seed", 42, "generator seed")
		coverage = flag.Float64("coverage", 0.20, "scratchpad coverage of vtxProp")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "experiment worker pool size (1 = sequential)")
		only     = flag.String("only", "", "run only experiments whose ID contains this substring")
		tsvDir   = flag.String("tsv", "", "directory to write per-experiment TSV files")
		chart    = flag.Int("chart", -1, "also render the given column as an ASCII bar chart")
		jsonDir  = flag.String("json-dir", "", "directory to write per-experiment JSON files")
		jsonPath = flag.String("json", "", "write a machine-readable suite summary JSON to this file")
		metrics  = flag.String("metrics", "", "stream per-iteration metric samples to this file (.tsv = TSV, else JSONL)")
		checkMet = flag.Bool("check-metrics", false, "schema-validate the -metrics JSONL after the run")
		htmlPath = flag.String("html", "", "write a self-contained HTML report")
		timeout  = flag.Duration("timeout", 10*time.Minute, "per-experiment watchdog timeout (0 disables)")
		runs     = flag.Int("runs", 1, "repeat the suite N times and report per-run wall times (tables print once)")
		benchOut = flag.String("bench-json", "", "write the -runs timing report as JSON to this file")
		compare  = flag.String("compare", "", "compare the timing report against a previous bench JSON file")
		cellStat = flag.Bool("cell-stats", false, "print a detailed cell-cache report after the suite")
		hintPath = flag.String("sched-hints", "", "JSON file of per-experiment wall-time hints for longest-job-first scheduling (read if present, rewritten after the run)")
		campaign = flag.Bool("campaign", false, "run only the Resilience R2 fault campaign")
		faultSd  = flag.Uint64("fault-seed", 1, "base seed for resilience fault-injection streams")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the suite to this file")
		memProf  = flag.String("memprofile", "", "write an end-of-suite heap profile to this file")
		traceOut = flag.String("trace", "", "write a runtime execution trace of the suite to this file (go tool trace)")
	)
	flag.Parse()

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		defer trace.Stop()
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "omega-bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush dead objects so the profile shows live state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "omega-bench: memprofile:", err)
			}
		}()
	}

	// SIGINT cancels the suite: in-flight experiments are abandoned, the
	// queued rest fail fast, and everything is still printed and written.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	filter := *only
	if *campaign {
		if filter != "" {
			return fmt.Errorf("-campaign and -only are mutually exclusive")
		}
		filter = "Resilience R2"
	}
	var specs []experiments.Spec
	for _, spec := range experiments.Registry() {
		if filter == "" || strings.Contains(spec.ID, filter) {
			specs = append(specs, spec)
		}
	}
	if len(specs) == 0 {
		return fmt.Errorf("no experiment ID contains %q", filter)
	}

	opts := experiments.Options{
		Scale: *scale, Seed: *seed, Coverage: *coverage,
		Parallelism: *parallel, Timeout: *timeout,
		FaultSeed: *faultSd,
	}
	if *runs < 1 {
		return fmt.Errorf("-runs must be at least 1")
	}
	if *hintPath != "" {
		hints, err := readSchedHints(*hintPath)
		if err != nil {
			return err
		}
		opts.SchedHints = hints
	}
	if *checkMet && *metrics == "" {
		return fmt.Errorf("-check-metrics requires -metrics")
	}
	var metricsFlush func() error
	if *metrics != "" {
		sink, flush, err := openMetricsSink(*metrics)
		if err != nil {
			return err
		}
		opts.Metrics = sink
		metricsFlush = flush
	}
	start := time.Now()

	// Tables print in registry order while the pool completes them in
	// whatever order it likes: each completion flushes the longest ready
	// prefix. Suite serializes progress callbacks, so no locking here.
	done := make([]*experiments.Table, len(specs))
	printed, completed := 0, 0
	var artifactErr error
	flush := func() {
		for printed < len(done) && done[printed] != nil {
			tbl := done[printed]
			fmt.Println(tbl.Format())
			if !tbl.Failed && *chart >= 0 {
				fmt.Println(tbl.Chart(*chart, 40))
			}
			if artifactErr == nil {
				artifactErr = writeTableArtifacts(tbl, specs[printed].ID, *tsvDir, *jsonDir)
			}
			printed++
		}
	}
	progress := func(ev experiments.SuiteEvent) {
		completed++
		fmt.Fprintf(os.Stderr, "[%d/%d] %s done in %v\n",
			completed, ev.Total, ev.ID, ev.Wall.Round(time.Millisecond))
		done[ev.Index] = ev.Table
		flush()
	}

	res := experiments.Suite(ctx, specs, opts, progress)
	flush()
	if artifactErr != nil {
		return artifactErr
	}
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "interrupted; results collected before cancellation were emitted\n")
	}
	fmt.Println(res.Summary.Format())
	if *cellStat {
		printCellStats(res.Cells)
	}
	if metricsFlush != nil {
		if err := metricsFlush(); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		fmt.Printf("wrote %s\n", *metrics)
		if *checkMet {
			if err := validateMetrics(*metrics); err != nil {
				return err
			}
		}
	}
	if *jsonPath != "" {
		if err := writeSuiteJSON(*jsonPath, opts, res); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if *htmlPath != "" {
		if err := writeHTML(*htmlPath, opts, start, append(res.Tables, res.Summary)); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *htmlPath)
	}
	fmt.Printf("ran %d experiments (%d failed) in %v at parallelism %d\n",
		len(res.Tables), res.Failed(), time.Since(start).Round(time.Millisecond), res.Parallelism)
	// A failed experiment fails the invocation — CI and scripts must not
	// read a suite with failed tables as success.
	if n := res.Failed(); n > 0 {
		return fmt.Errorf("%d of %d experiments failed", n, len(res.Tables))
	}
	if *runs > 1 || *benchOut != "" || *compare != "" {
		// Repeat the suite for wall-time statistics. Tables were already
		// printed (and are identical every run — the suite is
		// deterministic); the repeats only contribute timing samples. Each
		// repeat keeps the exact options of the first run — in particular
		// Cells stays nil so every Suite call installs a fresh cell cache,
		// making the repeat walls honest, independent samples.
		walls := []float64{res.Wall.Seconds()}
		for r := 2; r <= *runs; r++ {
			if ctx.Err() != nil {
				break
			}
			rr := experiments.Suite(ctx, specs, opts, nil)
			if n := rr.Failed(); n > 0 {
				return fmt.Errorf("run %d: %d of %d experiments failed", r, n, len(rr.Tables))
			}
			fmt.Fprintf(os.Stderr, "run %d/%d: %v\n", r, *runs, rr.Wall.Round(time.Millisecond))
			walls = append(walls, rr.Wall.Seconds())
		}
		rep := benchReport(os.Args[1:], benchConfig{
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			Parallelism: *parallel,
			Scale:       *scale,
		}, walls)
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fmt.Errorf("bench report: %w", err)
		}
		fmt.Printf("%s\n", data)
		if *benchOut != "" {
			if err := os.WriteFile(*benchOut, append(data, '\n'), 0o644); err != nil {
				return fmt.Errorf("bench report: %w", err)
			}
			fmt.Printf("wrote %s\n", *benchOut)
		}
		if *compare != "" {
			if err := printComparison(*compare, rep); err != nil {
				return err
			}
		}
	}
	if *hintPath != "" {
		if err := writeSchedHints(*hintPath, res.CostHints()); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *hintPath)
	}
	return nil
}

// printCellStats renders the -cell-stats report: totals, duplicate-cell
// rate, and the counted reasons cells bypassed the cache.
func printCellStats(cells *experiments.CellCache) {
	cs := cells.Stats()
	total := cs.Hits + cs.Misses + cs.Dedups
	fmt.Printf("cell cache: %d cacheable cells requested\n", total)
	fmt.Printf("  built:               %d\n", cs.Misses)
	fmt.Printf("  replayed from cache: %d\n", cs.Hits)
	fmt.Printf("  singleflight-shared: %d\n", cs.Dedups)
	fmt.Printf("  resident:            %d\n", cs.Resident)
	fmt.Printf("  duplicate-cell rate: %.1f%%\n", 100*cs.DuplicateRate())
	if len(cs.Uncacheable) > 0 {
		var reasons []string
		for r := range cs.Uncacheable {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		fmt.Println("  uncacheable (ran direct):")
		for _, r := range reasons {
			fmt.Printf("    %-10s %d\n", r, cs.Uncacheable[r])
		}
	}
}

// printComparison reads a previous bench JSON and prints min/mean deltas
// against the current report (negative percentages are speedups).
func printComparison(path string, cur benchJSON) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	var old benchJSON
	if err := json.Unmarshal(data, &old); err != nil {
		return fmt.Errorf("compare: %s: %w", path, err)
	}
	if old.MinSeconds == 0 || old.MeanSeconds == 0 {
		return fmt.Errorf("compare: %s: not a bench report (missing min/mean seconds)", path)
	}
	delta := func(oldV, newV float64) string {
		return fmt.Sprintf("%.3fs -> %.3fs (%+.1f%%)", oldV, newV, 100*(newV-oldV)/oldV)
	}
	fmt.Printf("vs %s (%d runs there, %d here):\n", path, len(old.RunsSeconds), len(cur.RunsSeconds))
	fmt.Printf("  min:  %s\n", delta(old.MinSeconds, cur.MinSeconds))
	fmt.Printf("  mean: %s\n", delta(old.MeanSeconds, cur.MeanSeconds))
	if old.Command != cur.Command {
		fmt.Printf("  note: commands differ (%q vs %q)\n", old.Command, cur.Command)
	}
	for _, w := range compareWarnings(old, cur) {
		fmt.Printf("  warning: %s\n", w)
	}
	return nil
}

// compareWarnings lists the ways two timing reports are not an
// apples-to-apples comparison: different host or toolchain, or a config
// block that disagrees on scheduler width or workload shape. Reports
// written before the config block existed produce a single "no config"
// warning instead of failing.
func compareWarnings(old, cur benchJSON) []string {
	var warns []string
	if old.CPU != cur.CPU {
		warns = append(warns, fmt.Sprintf("hosts differ (%q vs %q) — deltas reflect hardware, not code", old.CPU, cur.CPU))
	}
	if old.GoVersion != cur.GoVersion {
		warns = append(warns, fmt.Sprintf("go versions differ (%s vs %s)", old.GoVersion, cur.GoVersion))
	}
	if old.Config == nil {
		warns = append(warns, "previous report has no config block (older omega-bench); flag equivalence unverified")
		return warns
	}
	if cur.Config == nil {
		return warns
	}
	o, c := *old.Config, *cur.Config
	diff := func(name string, ov, cv any) {
		if ov != cv {
			warns = append(warns, fmt.Sprintf("%s differs (%v vs %v)", name, ov, cv))
		}
	}
	diff("gomaxprocs", o.GOMAXPROCS, c.GOMAXPROCS)
	diff("parallelism", o.Parallelism, c.Parallelism)
	diff("scale", o.Scale, c.Scale)
	return warns
}

// readSchedHints loads the -sched-hints file: a JSON object mapping
// experiment IDs to wall-time milliseconds. A missing file is not an
// error (first run bootstraps it).
func readSchedHints(path string) (map[string]time.Duration, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sched-hints: %w", err)
	}
	var ms map[string]int64
	if err := json.Unmarshal(data, &ms); err != nil {
		return nil, fmt.Errorf("sched-hints: %s: %w", path, err)
	}
	hints := make(map[string]time.Duration, len(ms))
	for id, m := range ms {
		hints[id] = time.Duration(m) * time.Millisecond
	}
	return hints, nil
}

// writeSchedHints persists this run's per-experiment wall times so the
// next invocation can schedule longest-job-first.
func writeSchedHints(path string, hints map[string]time.Duration) error {
	ms := make(map[string]int64, len(hints))
	for id, d := range hints {
		ms[id] = d.Milliseconds()
	}
	data, err := json.MarshalIndent(ms, "", "  ")
	if err != nil {
		return fmt.Errorf("sched-hints: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchJSON is the -runs timing report, shaped like the repo's BENCH_*.json
// records so successive PRs' measurements stay comparable.
type benchJSON struct {
	Command     string       `json:"command"`
	GoVersion   string       `json:"go_version"`
	CPU         string       `json:"cpu"`
	Config      *benchConfig `json:"config,omitempty"`
	RunsSeconds []float64    `json:"runs_seconds"`
	MeanSeconds float64      `json:"mean_seconds"`
	MinSeconds  float64      `json:"min_seconds"`
}

// benchConfig records the measurement context that makes two timing
// reports comparable: the host's scheduler width and every flag that
// changes the amount or shape of work the suite does. -compare warns when
// any of it differs.
type benchConfig struct {
	GOMAXPROCS  int `json:"gomaxprocs"`
	Parallelism int `json:"parallelism"`
	Scale       int `json:"scale"`
}

// benchReport assembles the timing report from the suite wall times.
func benchReport(args []string, cfg benchConfig, walls []float64) benchJSON {
	rep := benchJSON{
		Command:     strings.TrimSpace("omega-bench " + strings.Join(args, " ")),
		GoVersion:   runtime.Version(),
		CPU:         hostCPU(),
		Config:      &cfg,
		RunsSeconds: make([]float64, len(walls)),
	}
	var minW, sum float64
	for i, w := range walls {
		w = float64(int(w*1000+0.5)) / 1000 // millisecond precision
		rep.RunsSeconds[i] = w
		sum += w
		if i == 0 || w < minW {
			minW = w
		}
	}
	rep.MeanSeconds = float64(int(sum/float64(len(walls))*1000+0.5)) / 1000
	rep.MinSeconds = minW
	return rep
}

// hostCPU describes the measurement host: the first cpuinfo model name on
// Linux (with the logical CPU count), falling back to GOARCH.
func hostCPU() string {
	desc := runtime.GOARCH
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				if _, v, ok := strings.Cut(name, ":"); ok {
					desc = strings.TrimSpace(v)
					break
				}
			}
		}
	}
	if n := runtime.NumCPU(); n > 1 {
		return fmt.Sprintf("%s (%d cores)", desc, n)
	}
	return desc + " (1 core)"
}

// openMetricsSink creates the -metrics output file and picks the encoding
// by extension: .tsv gets the tabular series, anything else JSONL. The
// returned flush closes out buffered writes and surfaces any sticky
// writer error.
func openMetricsSink(path string) (obs.Sink, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("metrics: %w", err)
	}
	if strings.HasSuffix(path, ".tsv") {
		w := obs.NewTSVWriter(f)
		return w, func() error {
			if err := w.Flush(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}, nil
	}
	w := obs.NewJSONLWriter(f)
	return w, func() error {
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// validateMetrics re-reads a JSONL metrics file and schema-checks every
// sample (-check-metrics). TSV output is not validated.
func validateMetrics(path string) error {
	if strings.HasSuffix(path, ".tsv") {
		fmt.Fprintln(os.Stderr, "omega-bench: -check-metrics skipped (TSV output)")
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("check-metrics: %w", err)
	}
	defer f.Close()
	rep, err := obs.ValidateJSONL(f)
	if err != nil {
		return fmt.Errorf("check-metrics: %s: %w", path, err)
	}
	fmt.Printf("metrics valid: %d samples, %d experiments, %d machines, %d components\n",
		rep.Samples, rep.Experiments, rep.Machines, rep.Components)
	return nil
}

// suiteJSON is the -json machine-readable summary schema.
type suiteJSON struct {
	Scale       int              `json:"scale"`
	Seed        uint64           `json:"seed"`
	Coverage    float64          `json:"coverage"`
	Parallelism int              `json:"parallelism"`
	WallMS      int64            `json:"wall_ms"`
	Failed      int              `json:"failed"`
	Experiments []suiteJSONEntry `json:"experiments"`
}

type suiteJSONEntry struct {
	ID          string `json:"id"`
	WallMS      int64  `json:"wall_ms"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	Cells       uint64 `json:"cells"`
	CellHits    uint64 `json:"cell_hits"`
	Goroutines  int    `json:"peak_goroutines"`
	Rows        int    `json:"rows"`
	Failed      bool   `json:"failed"`
}

// writeSuiteJSON renders the suite result as machine-readable JSON for
// scripts and CI, mirroring the telemetry summary table.
func writeSuiteJSON(path string, opts experiments.Options, res *experiments.SuiteResult) error {
	out := suiteJSON{
		Scale:       opts.Scale,
		Seed:        opts.Seed,
		Coverage:    opts.Coverage,
		Parallelism: res.Parallelism,
		WallMS:      res.Wall.Milliseconds(),
		Failed:      res.Failed(),
		Experiments: make([]suiteJSONEntry, len(res.Telemetry)),
	}
	for i, te := range res.Telemetry {
		rows := 0
		if res.Tables[i] != nil {
			rows = len(res.Tables[i].Rows)
		}
		out.Experiments[i] = suiteJSONEntry{
			ID: te.ID, WallMS: te.Wall.Milliseconds(),
			CacheHits: te.CacheHits, CacheMisses: te.CacheMisses,
			Cells: te.Cells, CellHits: te.CellHits,
			Goroutines: te.Goroutines, Rows: rows, Failed: te.Failed,
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return fmt.Errorf("json: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeTableArtifacts stores the per-experiment TSV/JSON renderings.
func writeTableArtifacts(tbl *experiments.Table, id, tsvDir, jsonDir string) error {
	if tsvDir != "" {
		if err := writeArtifact(tsvDir, id, ".tsv", []byte(tbl.TSV())); err != nil {
			return err
		}
	}
	if jsonDir != "" {
		data, err := tbl.JSON()
		if err == nil {
			err = writeArtifact(jsonDir, id, ".json", data)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeHTML(path string, opts experiments.Options, start time.Time, collected []*experiments.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	meta := experiments.ReportMeta{
		Title:     "OMEGA reproduction report (IISWC 2018)",
		Options:   opts,
		Generated: time.Now(),
		Runtime:   time.Since(start).Round(time.Millisecond),
	}
	return experiments.WriteHTMLReport(f, meta, collected)
}

// writeArtifact stores one experiment rendering under dir.
func writeArtifact(dir, id, ext string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := strings.ReplaceAll(strings.ToLower(id), " ", "_") + ext
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
