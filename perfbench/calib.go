package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts in spells that last from seconds to minutes: the
// same rep can take twice the CPU time in a slow spell as in a fast one,
// and the reps of one run move together. A calibration loop, frozen in the
// benchmark so that no change to the simulator moves it, is timed between
// the units of work of every rep; each unit's time is scaled by how much
// slower than its reference time the loop ran beside it. The scaled times
// are the *_ref_s metrics: seconds at the loop's reference speed.
//
// The loop does the kind of host work the simulator spends most of its
// time on: it probes a set-associative tag array with LRU replacement, fed
// by an address stream that mixes sequential runs with random jumps read
// from an index array. Its working set (18 MiB) is well past a core's L2,
// like the simulator's: a loop that fits in L2 tracked the simulator's
// slow spells less well and was itself noisier.
const (
	calSets  = 1 << 14 // 2 MiB of tags and LRU stamps
	calWays  = 8
	calIndex = 1 << 22 // 16 MiB of uint32, shared by all loops
	calIters = 1 << 19

	// calRefS is the CPU time of one loop at the reference speed, about
	// its median on 2 vCPUs of an Intel Xeon.
	calRefS = 0.080
)

// calLoop is one goroutine's calibration state.
type calLoop struct {
	tags, lastUse []uint64
	index         []uint32
}

// offHeap maps n zeroed values of T outside the Go heap: held on the heap,
// the loops' 18 MiB would raise the collector's heap goal and so change
// how often the workload itself is collected.
func offHeap[T uint32 | uint64](n int, mapped *[][]byte) ([]T, error) {
	var zero T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping calibration state: %w", err)
	}
	*mapped = append(*mapped, b)
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
}

// run does the loop's fixed work from a cleared tag array and returns the
// hit count, which is the same on every call.
func (l *calLoop) run() uint64 {
	clear(l.tags)
	clear(l.lastUse)
	var addr, hits uint64
	p := uint32(0)
	for i := uint64(1); i <= calIters; i++ {
		p = l.index[(p^uint32(i))&(calIndex-1)]
		if p&7 == 0 {
			addr = uint64(p) << 6
		} else {
			addr += 8
		}
		tag := addr>>6 + 1
		base := (tag & (calSets - 1)) * calWays
		victim, oldest, hit := base, ^uint64(0), false
		for w := base; w < base+calWays; w++ {
			if l.tags[w] == tag {
				l.lastUse[w], hit = i, true
				hits++
				break
			}
			if l.lastUse[w] < oldest {
				victim, oldest = w, l.lastUse[w]
			}
		}
		if !hit {
			l.tags[victim], l.lastUse[victim] = tag, i
		}
	}
	return hits
}

// threadCPUSeconds is the calling thread's user+sys CPU time.
func threadCPUSeconds() float64 {
	const rusageThread = 1 // RUSAGE_THREAD
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// span is the host time of one stretch of a rep.
type span struct{ wall, cpu float64 }

// calibrator times a rep in segments, the units of work between its
// ticks, and runs the loop before, between and after them on as many
// goroutines at once as the rep keeps busy.
type calibrator struct {
	mapped   [][]byte
	loops    []*calLoop
	loopCPU  []float64
	chunks   []span
	segments []span
	t0       time.Time
	c0       float64
}

func newCalibrator(threads int) (*calibrator, error) {
	c := &calibrator{}
	index, err := offHeap[uint32](calIndex, &c.mapped)
	if err != nil {
		return nil, err
	}
	x := uint64(0)
	for i := range index {
		x += 0x9E3779B97F4A7C15 // SplitMix64
		z := (x ^ x>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		index[i] = uint32(z ^ z>>31)
	}
	for range max(threads, 1) {
		l := &calLoop{index: index}
		if l.tags, err = offHeap[uint64](calSets*calWays, &c.mapped); err == nil {
			l.lastUse, err = offHeap[uint64](calSets*calWays, &c.mapped)
		}
		if err != nil {
			c.close()
			return nil, err
		}
		c.loops = append(c.loops, l)
	}
	c.loopCPU = make([]float64, len(c.loops))
	c.chunk() // touch every page, so the state is resident from here on
	return c, nil
}

// close unmaps the loops' state.
func (c *calibrator) close() {
	for _, b := range c.mapped {
		_ = syscall.Munmap(b) // only fails for a range that is not mapped
	}
	c.mapped, c.loops = nil, nil
}

// residentMiB is the memory the loops hold, all of it resident once the
// first chunk has run; peak_rss_mib leaves it out.
func (c *calibrator) residentMiB() float64 {
	bytes := 4*calIndex + len(c.loops)*2*8*calSets*calWays
	return float64(bytes) / (1 << 20)
}

// chunk runs every loop once, each on its own locked thread, and records
// the chunk's wall time and the loops' mean own CPU time, which leaves
// out any garbage collection still running beside them.
func (c *calibrator) chunk() {
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, l := range c.loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			c0 := threadCPUSeconds()
			l.run()
			c.loopCPU[i] = threadCPUSeconds() - c0
		}()
	}
	wg.Wait()
	s := span{wall: time.Since(t0).Seconds()}
	for _, v := range c.loopCPU {
		s.cpu += v / float64(len(c.loopCPU))
	}
	c.chunks = append(c.chunks, s)
	c.t0, c.c0 = time.Now(), cpuSeconds()
}

func (c *calibrator) closeSegment() {
	c.segments = append(c.segments, span{time.Since(c.t0).Seconds(), cpuSeconds() - c.c0})
}

// begin starts a rep.
func (c *calibrator) begin() {
	c.chunks, c.segments = c.chunks[:0], c.segments[:0]
	c.chunk()
}

// tick ends one unit of work of the rep and starts the next.
func (c *calibrator) tick() {
	c.closeSegment()
	c.chunk()
}

// end finishes the rep. raw is its host time without the loops; ref
// scales each segment by calRefS over the mean loop time on either side
// of it, CPU time by the loops' CPU time and wall time by their wall
// time.
func (c *calibrator) end() (raw, ref span) {
	c.closeSegment()
	c.chunk()
	for i, s := range c.segments {
		a, b := c.chunks[i], c.chunks[i+1]
		raw.wall += s.wall
		raw.cpu += s.cpu
		ref.wall += s.wall * 2 * calRefS / (a.wall + b.wall)
		ref.cpu += s.cpu * 2 * calRefS / (a.cpu + b.cpu)
	}
	return raw, ref
}

// meanLoopCPU is the mean CPU time of one loop over the rep.
func (c *calibrator) meanLoopCPU() float64 {
	var sum float64
	for _, ch := range c.chunks {
		sum += ch.cpu
	}
	return sum / float64(len(c.chunks))
}
