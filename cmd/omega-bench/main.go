// Command omega-bench regenerates the paper's tables and figures
// (DESIGN.md §4) and prints them as aligned text, optionally writing
// TSV/JSON files per experiment.
//
// The suite runs on a bounded worker pool (-parallel, default GOMAXPROCS)
// over a shared deterministic dataset cache, so independent experiments
// overlap while graphs common to several runners are generated once. A
// cross-experiment simulation-cell cache (DESIGN.md §12) additionally
// dedups identical (machine config, dataset, workload) simulations
// across experiments. After the experiment tables comes the Suite
// table, the one host-side report: per-experiment wall time and cache
// traffic, with notes naming the option set and the dataset- and
// cell-cache totals. -tsv and -json-dir write it as suite.tsv and
// suite.json. Timing measurements belong to perfbench (perfbench/NOTES.md).
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
//	omega-bench                           # full suite, parallelism = GOMAXPROCS
//	omega-bench -parallel 1               # sequential (identical tables)
//	omega-bench -scale 14                 # closer-to-paper regime (slower)
//	omega-bench -only "Figure 14"         # one experiment
//	omega-bench -only "Resilience R2"     # the fault campaign
//	omega-bench -fault-seed 7             # re-key the campaign's fault streams
//	omega-bench -tsv results/             # also write TSV files (+ suite.tsv)
//	omega-bench -json-dir results/        # also write JSON files (+ suite.json)
//	omega-bench -timeout 2m               # per-experiment watchdog
//	omega-bench -metrics out.jsonl        # stream per-iteration metric samples
//	omega-bench -cpuprofile cpu.out       # profile the suite (go tool pprof)
//	omega-bench -memprofile mem.out       # end-of-suite heap profile
//	omega-bench -trace exec.trace         # execution trace (go tool trace)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"omega/internal/core"
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
		tsvDir   = flag.String("tsv", "", "directory to write per-experiment TSV files and the Suite table as suite.tsv")
		chart    = flag.Int("chart", -1, "also render the given column as an ASCII bar chart")
		jsonDir  = flag.String("json-dir", "", "directory to write per-experiment JSON files and the Suite table as suite.json")
		metrics  = flag.String("metrics", "", "stream per-iteration metric samples to this file (.tsv = TSV, else JSONL)")
		checkMet = flag.Bool("check-metrics", false, "schema-validate the -metrics JSONL after the run")
		htmlPath = flag.String("html", "", "write a self-contained HTML report")
		timeout  = flag.Duration("timeout", 10*time.Minute, "per-experiment watchdog timeout (0 disables)")
		faultSd  = flag.Uint64("fault-seed", 1, "base seed for resilience fault-injection streams")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the suite to this file")
		memProf  = flag.String("memprofile", "", "write an end-of-suite heap profile to this file")
		traceOut = flag.String("trace", "", "write a runtime execution trace of the suite to this file (go tool trace)")
	)
	flag.Parse()
	if err := core.CheckCoverage(*coverage); err != nil {
		return fmt.Errorf("-coverage: %w", err)
	}
	// Options.Defaults reads a zero scale or seed as "use the default",
	// so reject them here rather than run a suite the flags did not ask for.
	if err := experiments.CheckScale(*scale); err != nil {
		return fmt.Errorf("-scale: %w", err)
	}
	if *seed == 0 {
		return fmt.Errorf("-seed: 0 is not a valid seed")
	}
	if *faultSd == 0 {
		return fmt.Errorf("-fault-seed: 0 is not a valid seed")
	}

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

	var specs []experiments.Spec
	for _, spec := range experiments.Registry() {
		if strings.Contains(spec.ID, *only) {
			specs = append(specs, spec)
		}
	}
	if len(specs) == 0 {
		return fmt.Errorf("no experiment ID contains %q", *only)
	}

	opts := experiments.Options{
		Scale: *scale, Seed: *seed, Coverage: *coverage,
		Parallelism: *parallel, Timeout: *timeout,
		FaultSeed: *faultSd,
	}
	if *checkMet && *metrics == "" {
		return fmt.Errorf("-check-metrics requires -metrics")
	}
	var series *obs.SeriesFile
	if *metrics != "" {
		var err error
		if series, err = obs.CreateSeriesFile(*metrics); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		opts.Metrics = series
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
	if err := writeTableArtifacts(res.Summary, res.Summary.ID, *tsvDir, *jsonDir); err != nil {
		return err
	}
	if series != nil {
		if err := series.Close(); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		fmt.Printf("wrote %s\n", *metrics)
		if *checkMet {
			if err := validateMetrics(*metrics); err != nil {
				return err
			}
		}
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
	return nil
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
