package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds is the process's user+sys CPU time. Unlike wall time it
// excludes time the hypervisor stole from the guest, which on a shared
// host is the dominant source of run-to-run spread.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// stealSeconds reads the host-wide steal time from /proc/stat, or -1 when
// the kernel does not report it.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// cpu user nice system idle iowait irq softirq steal ...
		if len(fields) > 8 && fields[0] == "cpu" {
			ticks, err := strconv.ParseFloat(fields[8], 64)
			if err != nil {
				return -1
			}
			return ticks / 100 // USER_HZ is 100 on every Linux ABI Go supports
		}
	}
	return -1
}

// resetPeakRSS returns the freed heap to the kernel and resets VmHWM to
// the current resident set, so that peakRSSMiB reads the peak since this
// call. Where the kernel refuses the reset, the peak keeps counting from
// process start.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS not reset:", err)
	}
}

// peakRSSMiB is the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if fields := strings.Fields(v); len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostContext describes the conditions a run measured under. It is not a
// metric: it lets a reader tell a run the host slowed (steal) from a run
// the program slowed.
type hostContext struct {
	StealS float64 `json:"steal_s"`
	TimedS float64 `json:"timed_phase_s"`
	// LoopMs is the calibration loop's median CPU time over the timed
	// phase's reps; above calRefS the run fell in a slow spell.
	LoopMs     float64 `json:"calibration_loop_ms"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
}

// stealMeter accumulates steal time over the timed phases of a run.
type stealMeter struct {
	start, steal, timed float64
	valid               bool
	t0                  time.Time
}

func (s *stealMeter) begin() {
	s.start = stealSeconds()
	s.t0 = time.Now()
}

func (s *stealMeter) end() {
	if now := stealSeconds(); now >= 0 && s.start >= 0 {
		s.steal += now - s.start
		s.valid = true
	}
	s.timed += time.Since(s.t0).Seconds()
}

func (s *stealMeter) context() hostContext {
	steal := s.steal
	if !s.valid {
		steal = -1
	}
	return hostContext{
		StealS:     steal,
		TimedS:     s.timed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}
