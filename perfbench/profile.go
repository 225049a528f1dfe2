package main

import (
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// profileLayers are the layers a CPU profile's flat samples are
// attributed to, by the package of the function that holds the sample.
// memsys.queue is the memsys root package (queue.go holds its host cost);
// graph covers the graph package and its gen, reorder and datasets
// subpackages; runtime is the Go runtime (GC, scheduler, allocation).
var profileLayers = []string{
	"core", "cpu", "memsys.cache", "memsys.coherence", "memsys.noc",
	"memsys.dram", "memsys.queue", "scratchpad", "pisc", "experiments",
	"runtime", "ligra", "algorithms", "graph", "obs", "other",
}

// topRow matches one row of `go tool pprof -top -sample_index=samples`:
// flat, flat%, sum%, cum, cum%, function.
var topRow = regexp.MustCompile(`^\s*(\d+)\s+[\d.]+%\s+[\d.]+%\s+\d+\s+[\d.]+%\s+(.+)$`)

// selfShares aggregates a CPU profile's flat samples by layer with
// `go tool pprof` and returns each layer's share and the sample count.
func selfShares(profile string) (map[string]float64, uint64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-sample_index=samples",
		"-nodecount=1000000", "-nodefraction=0", profile).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	flat := map[string]uint64{}
	var total uint64
	for _, line := range strings.Split(string(out), "\n") {
		m := topRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		n, err := strconv.ParseUint(m[1], 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("go tool pprof: row %q: %w", line, err)
		}
		flat[layerOf(packageOf(m[2]))] += n
		total += n
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("profile %s holds no samples", profile)
	}
	shares := map[string]float64{}
	for l, n := range flat {
		shares[l] = float64(n) / float64(total)
	}
	return shares, total, nil
}

// packageOf returns the import path of a profiled function's package:
// "omega/internal/core.(*Machine).access" gives "omega/internal/core".
func packageOf(fn string) string {
	fn = strings.TrimSuffix(fn, " (inline)")
	// Generic type arguments may hold dots and slashes; drop them.
	var b strings.Builder
	depth := 0
	for _, r := range fn {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	fn = b.String()
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func layerOf(pkg string) string {
	const omega = "omega/internal/"
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == omega+"graph" || strings.HasPrefix(pkg, omega+"graph/"):
		return "graph"
	case pkg == omega+"memsys":
		return "memsys.queue"
	case strings.HasPrefix(pkg, omega+"memsys/"):
		return "memsys." + strings.TrimPrefix(pkg, omega+"memsys/")
	}
	switch l := strings.TrimPrefix(pkg, omega); l {
	case "core", "cpu", "scratchpad", "pisc", "experiments", "ligra", "algorithms", "obs":
		return l
	}
	return "other"
}
