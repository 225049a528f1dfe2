package core

import (
	"context"
	"fmt"

	"omega/internal/cpu"
	"omega/internal/faults"
	"omega/internal/memsys"
	"omega/internal/memsys/dram"
	"omega/internal/memsys/noc"
	"omega/internal/obs"
	"omega/internal/pisc"
	"omega/internal/scratchpad"
	"omega/internal/stats"
)

// Machine is one simulated system (baseline CMP or OMEGA) together with
// the execution-driven scheduler the framework runs on. A Machine is
// single-threaded by design: the simulation is deterministic event
// scheduling, not host parallelism.
//
// Distinct Machines are fully independent: every piece of mutable
// simulation state — cores, caches, the coherence directory, DRAM and
// NoC queues, fault-injector PRNG streams, the ParallelForGrain sched
// scratch, and the stats counters read by ElapsedCycles/Stats — is
// owned by the Machine value, and the core packages hold no package-
// level mutable state. Concurrent goroutines may therefore each drive
// their own Machine (the experiment harness fans machine variants out
// this way), sharing only immutable inputs such as a built
// *graph.Graph.
type Machine struct {
	cfg    Config
	cores  []*cpu.Core
	xbar   *noc.Crossbar
	mem    *dram.DRAM
	path   *cachePath
	omega  *omegaHier       // nil on the baseline machine
	faults *faults.Injector // nil when injection is disabled

	nextAddr memsys.Addr
	regions  []*Region

	// pendingALU holds the XOR mask of an injected PISC ALU transient for
	// the atomic op most recently offloaded; the framework's functional
	// update consumes it via Ctx.TakeALUFault. Zero when no fault is
	// pending (the overwhelmingly common case).
	pendingALU uint64

	// ctx/ctxDone implement cooperative cancellation (AttachContext): the
	// run loops poll ctxDone every cancelCheckMask+1 scheduled items and
	// unwind with a *Cancelled panic when it closes. cancelTick is the
	// poll counter; none of this perturbs simulation state or RNG draws.
	ctx        context.Context
	ctxDone    <-chan struct{}
	cancelTick uint64

	accessesByKind [memsys.NumKinds]stats.Counter
	atomicsIssued  stats.Counter
	srcReads       stats.Counter
	vertexProfile  []uint64
	iterations     stats.Counter

	// levelCount/levelLatency break accesses down by the hierarchy level
	// that served them (diagnostics and the Figure 3/15 analyses). They
	// are dense arrays indexed by (level, atomic-op bit) — see levelIndex —
	// so the per-access bookkeeping is branch-light and allocation-free.
	levelCount   [2 * memsys.NumLevels]uint64
	levelLatency [2 * memsys.NumLevels]uint64

	// memoFaults is each core's injected corruption of its L1 same-line
	// memo (the linebuf fault site, see fastRead). It is allocated only
	// when a fault injector is attached.
	memoFaults []memoFault

	// fold is the run-fold batching state (runfold.go): deferred bulk
	// accounting for runs of same-line streaming reads. foldEnabled and
	// probeFold are the derived enables, recomputed whenever configuration
	// or attached machinery changes (recomputeFold).
	fold        runFold
	foldEnabled bool
	probeFold   bool

	// sched is the ParallelForGrain scratch state (chunk cursors, per-core
	// contexts, the clock-ordered core heap), reused across parallel
	// regions so scheduling allocates nothing in steady state.
	sched schedState

	// lbHits/lbStores count same-line fast-path memo hits and arms;
	// parRegions/schedItems count scheduler activity. All are
	// observability-only: nothing in the simulation reads them back.
	lbHits     stats.Counter
	lbStores   stats.Counter
	parRegions stats.Counter
	schedItems stats.Counter

	// reg is the machine's metric registry: read-only closures over the
	// counters above and every component's, built once at construction.
	reg *obs.Registry
	// sink receives registry samples; traceAccess and traceSpan are the
	// per-access and per-span tracers. Each is attached on its own, and
	// a detached one costs one nil check per hook site.
	sink        obs.Sink
	traceAccess func(now memsys.Cycles, a memsys.Access, r memsys.Result)
	traceSpan   func(obs.Span)
	// finalEmitted guards the end-of-run registry flush in Stats() so
	// repeated snapshots emit the final samples once.
	finalEmitted bool
}

// schedState is the reusable scratch of ParallelForGrain. busy guards
// against a body re-entering ParallelFor: the rare nested region falls
// back to fresh state instead of corrupting the outer one.
type schedState struct {
	nextChunk   []int
	itemInChunk []int
	ctxs        []Ctx
	startClock  []memsys.Cycles // span-sink scratch: per-core region entry clocks
	heap        coreHeap
	busy        bool
}

// levelIndex flattens (level, atomic?) into the profile array index.
func levelIndex(l memsys.Level, atomic bool) int {
	if atomic {
		return int(l) + int(memsys.NumLevels)
	}
	return int(l)
}

// NewMachine builds a machine from cfg. It panics on an invalid
// configuration (configurations are static experiment inputs); callers
// that take configurations from external input (flags, files) should use
// NewMachineChecked instead.
func NewMachine(cfg Config) *Machine {
	m, err := NewMachineChecked(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// NewMachineChecked is NewMachine returning the validation error instead
// of panicking, for callers assembling configurations from user input.
func NewMachineChecked(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:      cfg,
		nextAddr: pageSize,
	}
	m.xbar = noc.New()
	m.mem = dram.New(dram.Config{ClosePage: cfg.ClosePage, Hybrid: cfg.HybridPagePolicy})
	if cfg.Faults.Enabled() {
		m.faults = faults.New(cfg.Faults)
		m.mem.AttachFaults(m.faults)
		m.xbar.AttachFaults(m.faults)
	}
	m.path = newCachePath(cfg, m.xbar, m.mem)
	m.path.faults = m.faults
	for c := 0; c < NumCores; c++ {
		m.cores = append(m.cores, cpu.New())
	}
	if m.faults != nil {
		m.memoFaults = make([]memoFault, NumCores)
	}
	if cfg.SPBytesPerCore > 0 {
		m.omega = newOmegaHier(m.path)
	}
	m.reg = buildRegistry(m)
	m.recomputeFold()
	return m, nil
}

// AttachSink installs the machine's sample sink (nil detaches): it
// receives per-iteration registry samples at BeginIteration boundaries
// plus one final flush in Stats. A sink sees samples only; the access
// and span streams are attached with TraceAccesses and TraceSpans.
func (m *Machine) AttachSink(s obs.Sink) {
	m.sink = s
	m.finalEmitted = false
}

// TraceAccesses installs the per-access tracer (nil detaches): fn
// receives every simulated access with the issuing core's clock and the
// access's timing outcome. The tracer must see the expanded per-access
// stream, so run folding is off while one is attached (recomputeFold).
func (m *Machine) TraceAccesses(fn func(now memsys.Cycles, a memsys.Access, r memsys.Result)) {
	m.flushFold()
	m.traceAccess = fn
	m.recomputeFold()
}

// TraceSpans installs the span tracer (nil detaches): fn receives one
// obs.Span per core that did work in each parallel region.
func (m *Machine) TraceSpans(fn func(obs.Span)) { m.traceSpan = fn }

// SinkAttached reports whether a telemetry sink is attached.
func (m *Machine) SinkAttached() bool { return m.sink != nil }

// Metrics returns the machine's metric registry: the live, read-only
// view over every component's counters that samples are emitted from
// and MachineStats is derived through. Any open fold window is flushed
// first so the registry's view is complete.
func (m *Machine) Metrics() *obs.Registry {
	m.flushFold()
	return m.reg
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// HasScratchpads reports whether this is an OMEGA-style machine.
func (m *Machine) HasScratchpads() bool { return m.omega != nil }

// MonitorFor builds the scratchpad monitor register describing a vtxProp
// region (the configuration the translated framework writes at startup,
// §V.F).
func (m *Machine) MonitorFor(r *Region) scratchpad.MonitorRegister {
	return scratchpad.MonitorRegister{
		StartAddr: r.Base,
		TypeSize:  uint8(r.ElemSize),
		Stride:    uint32(r.ElemSize),
		Count:     uint32(r.Count),
	}
}

// ConfigureGraph loads the scratchpad monitor registers and PISC microcode
// for the running algorithm and returns how many of the hottest vertices
// are scratchpad-resident (0 on the baseline machine). The framework calls
// this once per run, before the algorithm starts.
func (m *Machine) ConfigureGraph(monitors []scratchpad.MonitorRegister, totalVertices int, mc pisc.Microcode) int {
	m.flushFold()
	m.path.dropMemos()
	if m.omega == nil {
		if m.cfg.LockedLines {
			return m.lockHotLines(monitors, totalVertices)
		}
		return 0
	}
	if cap := m.cfg.SPResidentCap; cap > 0 && cap < totalVertices {
		totalVertices = cap
	}
	return m.omega.configure(monitors, totalVertices, mc)
}

// lockHotLines pins the vtxProp lines of the hottest vertices into their
// home L2 banks (§IX's locked-cache alternative). It returns how many
// vertices were fully pinned. The pin budget mirrors OMEGA's hot set: 20%
// of the vertices (or SPResidentCap), bounded by set-conflict limits —
// every set must keep a replaceable way.
func (m *Machine) lockHotLines(monitors []scratchpad.MonitorRegister, totalVertices int) int {
	limit := totalVertices / 5
	if m.cfg.SPResidentCap > 0 && m.cfg.SPResidentCap < limit {
		limit = m.cfg.SPResidentCap
	}
	if limit < 1 {
		limit = 1
	}
	pinnedVertices := 0
	for v := 0; v < limit; v++ {
		ok := true
		for _, mon := range monitors {
			if uint32(v) >= mon.Count {
				continue
			}
			addr := mon.StartAddr + memsys.Addr(uint64(v)*uint64(mon.Stride))
			line := memsys.LineAddr(addr)
			bank := m.path.homeBank(line)
			if !m.path.l2[bank].Pin(m.path.l2Local(line)) {
				ok = false
			}
		}
		if ok {
			pinnedVertices++
		}
	}
	return pinnedVertices
}

// EnableVertexProfile starts counting vtxProp accesses per vertex
// (Figures 4(b) and 5).
func (m *Machine) EnableVertexProfile(numVertices int) {
	m.vertexProfile = make([]uint64, numVertices)
}

// VertexProfile returns the per-vertex vtxProp access counts, or nil.
func (m *Machine) VertexProfile() []uint64 { return m.vertexProfile }

// BeginIteration marks an algorithm iteration boundary. Iteration
// boundaries change iteration-scoped state (OMEGA invalidates its source
// vertex buffers, paper §V.C), so every core's L1 same-line memo is
// conservatively dropped.
//
// With a sink attached, the boundary closes the previous iteration by
// emitting every registered metric (cumulative values; a frontier gauge
// set by the framework just before the call is attributed to the
// iteration that produced it). Emission is a pure read of live counters
// — it cannot perturb simulation state.
func (m *Machine) BeginIteration() {
	m.checkCancelNow()
	m.flushFold()
	if m.sink != nil {
		if n := m.iterations.Value(); n > 0 {
			m.reg.Emit(m.sink, m.cfg.Name, n)
		}
	}
	m.finalEmitted = false
	m.iterations.Inc()
	m.path.dropMemos()
	if m.omega != nil {
		m.omega.ctrl.InvalidateSrcBufs()
	}
}

// ElapsedCycles returns the max core clock — the simulated execution time.
// Any open fold window is flushed first so deferred cycles are visible.
func (m *Machine) ElapsedCycles() memsys.Cycles {
	m.flushFold()
	var mx memsys.Cycles
	for _, c := range m.cores {
		if c.Clock() > mx {
			mx = c.Clock()
		}
	}
	return mx
}

// Ctx is the handle a framework closure uses to emit simulated work for
// one core.
type Ctx struct {
	m    *Machine
	core int
}

// Exec retires ops ALU/branch instructions on this core.
func (c *Ctx) Exec(ops int) { c.m.cores[c.core].Exec(ops) }

func (c *Ctx) access(r *Region, i int, op memsys.Op, srcRead bool) {
	if m := c.m; m.fold.active {
		// A fold window is open. An eligible read (plain, non-src,
		// streaming kind, same core) may defer into it; anything else —
		// and any read tryFold cannot prove replayable — flushes the
		// deferred accounting before simulating, so every real access
		// observes fully settled clocks, LRU state, and counters.
		if op == memsys.OpRead && !srcRead && r.Kind != memsys.KindVtxProp && c.core == m.fold.core {
			if m.tryFold(r, i) {
				return
			}
		}
		m.flushFold()
	}
	a := memsys.Access{
		Core:    c.core,
		Addr:    r.Addr(i),
		Size:    uint8(r.ElemSize),
		Op:      op,
		Kind:    r.Kind,
		SrcRead: srcRead,
	}
	if r.Kind == memsys.KindVtxProp && c.m.vertexProfile != nil && i < len(c.m.vertexProfile) {
		c.m.vertexProfile[i]++
	}
	c.m.accessesByKind[r.Kind].Inc()
	if op == memsys.OpAtomic {
		c.m.atomicsIssued.Inc()
	}
	if srcRead {
		c.m.srcReads.Inc()
	}
	core := c.m.cores[c.core]
	var res memsys.Result
	if op == memsys.OpRead && r.Kind != memsys.KindVtxProp && !c.m.cfg.DisableLineBuffer {
		res = c.m.fastRead(core, a, r)
	} else if c.m.omega != nil {
		res = c.m.omega.Access(core.Clock(), a)
	} else {
		res = c.m.path.Access(core.Clock(), a)
	}
	if op == memsys.OpAtomic && res.Level == memsys.LevelPISC && c.m.faults != nil {
		if mask, ok := c.m.faults.ALUFlip(); ok {
			// Transient in the PISC ALU datapath: latch the XOR mask for the
			// framework's functional update (Ctx.TakeALUFault), corrupting
			// the computed value the way a real single-event upset would.
			c.m.pendingALU = mask
		}
	}
	if c.m.traceAccess != nil {
		c.m.traceAccess(core.Clock(), a, res)
	}
	li := levelIndex(res.Level, op == memsys.OpAtomic)
	c.m.levelCount[li]++
	c.m.levelLatency[li] += uint64(res.Latency)
	core.Mem(res)
}

// memoFault is one core's injected corruption of its L1 same-line memo
// (the linebuf fault site). The modeled generation check refuses the
// corrupt memo, which fastRead models by dropping it (Cache.DropHot) and
// recording its line here: the next read of line takes the full probe and
// counts the catch.
type memoFault struct {
	line  memsys.Addr
	armed bool
}

// fastRead serves a non-atomic, non-vtxProp read a of region r,
// short-circuiting through the L1's same-line memo (Cache.HotWay) when it
// provably hits the line of the core's most recent streaming L1 probe.
//
// Bit-identity argument: the fast path applies only to plain reads of the
// streaming kinds (edgeList, nGraphData, activeList), which on both
// machines flow straight to the cache path (so the full probe below calls
// it directly) — vtxProp is excluded
// because OMEGA routes it through the scratchpad monitor, where residency
// is per-vertex (two vertices in one 64 B line can differ) and resident
// accesses consume fault-PRNG draws. A cache-path L1 read hit has exactly
// three side effects — use-clock tick, LRU touch, read-hit counter — and a
// constant result {L1Lat, LevelL1}; it touches no directory,
// NoC, or DRAM state. SetLastUse(way, FoldReadHits(1)) replays those
// three effects exactly on the way HotWay returns, which it does only
// when the memoized line is provably the line a full probe would hit
// (the memo dies on any eviction/invalidation of that line, and on the
// machine-level events that drop it: BeginIteration, ConfigureGraph,
// fault degrades, and memo corruptions). The exception is
// fault state: with an injector attached, the full probe draws a
// directory-flip decision per access (cachePath.Access) that a memo hit
// skips, and memo corruptions are drawn per full probe (below), so under
// a nonzero Faults.DirFlipRate or LineBufFlipRate the two paths consume
// different PRNG streams and results differ.
func (m *Machine) fastRead(core *cpu.Core, a memsys.Access, r *Region) memsys.Result {
	l1 := m.path.l1[a.Core]
	line := memsys.LineAddr(a.Addr)
	if way := l1.HotWay(line); way >= 0 {
		l1.SetLastUse(way, l1.FoldReadHits(1))
		m.lbHits.Inc()
		if m.foldEnabled {
			// Open a fold window (runfold.go): the next same-line read would
			// replay this exact memo hit, so it can defer instead.
			m.openFold(a.Core, r, line, way)
		}
		return memsys.Result{Latency: L1Lat, Level: memsys.LevelL1}
	}
	if m.memoFaults != nil {
		if f := m.memoFaults[a.Core]; f.armed && f.line == line {
			// The corrupted memo for this line was refused: the detection
			// worked, and the read below takes the full (bit-identical)
			// probe, which discards the corruption.
			m.faults.NoteLineBufGenCatch()
		}
	}
	res := m.path.Access(core.Clock(), a)
	// The probe armed the L1 memo for this line, whether it hit or missed
	// (the streaming fill seeds it); lbStores counts those arms.
	m.lbStores.Inc()
	if m.memoFaults != nil {
		m.memoFaults[a.Core] = memoFault{}
		if m.faults.LineBufFlip() {
			// Transient in the just-armed memo: the generation check refuses
			// it from now on.
			l1.DropHot()
			m.memoFaults[a.Core] = memoFault{line: line, armed: true}
		}
	}
	// Open a fold window (runfold.go) for the just-armed memo — after a
	// hit or a streaming fill alike, the next same-line read would be a
	// memo hit. A fill rejected by a fully pinned set, or a corrupted memo,
	// leaves the memo unarmed for this line, and HotWay refuses.
	if m.foldEnabled {
		if way := l1.HotWay(line); way >= 0 {
			m.openFold(a.Core, r, line, way)
		}
	}
	return res
}

// TakeALUFault returns the XOR mask of an injected PISC ALU transient
// latched by this context's most recent Atomic, clearing it, or zero when
// the op executed cleanly. The framework applies the mask to the
// functionally computed value, making the corruption visible in algorithm
// outputs (and therefore recoverable only by re-execution).
func (c *Ctx) TakeALUFault() uint64 {
	mask := c.m.pendingALU
	c.m.pendingALU = 0
	return mask
}

// Read emits a plain load of element i of region r. A read of the open
// fold window's current line, by the window's core through the region
// that registered the line, is a memo fold (runfold.go) and is counted
// here without a call; every other read takes the access path.
func (c *Ctx) Read(r *Region, i int) {
	if f := &c.m.fold; r == f.memoR && uint(i-f.memoLo) < f.memoSpan && c.core == f.core {
		f.n++
		return
	}
	c.access(r, i, memsys.OpRead, false)
}

// ReadSrc emits a source-vertex property read (served by OMEGA's source
// vertex buffer when possible). Source reads from different edges are
// independent, so the out-of-order window overlaps them like any other
// load.
func (c *Ctx) ReadSrc(r *Region, i int) { c.access(r, i, memsys.OpRead, true) }

// Write emits a plain store.
func (c *Ctx) Write(r *Region, i int) { c.access(r, i, memsys.OpWrite, false) }

// Atomic emits an atomic read-modify-write. Under the AtomicsAsPlain
// ablation (§III) it degrades to a plain load + store pair: independent
// read-modify-writes overlap in the out-of-order window once the fence
// semantics are gone.
func (c *Ctx) Atomic(r *Region, i int) {
	if c.m.cfg.AtomicsAsPlain {
		c.Read(r, i)
		c.access(r, i, memsys.OpWrite, false)
		return
	}
	c.access(r, i, memsys.OpAtomic, false)
}

// ParallelFor schedules body(i) for i in [0,n) over all cores using
// OpenMP-style static chunking with the machine's configured chunk size,
// and ends with a barrier. Cores are interleaved by local clock so shared
// resources see a realistic arrival order.
func (m *Machine) ParallelFor(n int, body func(ctx *Ctx, i int)) {
	m.ParallelForGrain(n, OpenMPChunk, body)
}

// ParallelForGrain is ParallelFor with an explicit chunk size.
//
// Scheduling interleaves at item granularity: the lowest-clock core with
// work runs one item, which keeps core clocks tightly coupled so
// shared-resource (DRAM/NoC) arrival order stays realistic. Core selection
// uses a (clock, id)-ordered indexed min-heap — O(log p) per item instead
// of an O(p) scan — and chunks are claimed eagerly the moment a core goes
// idle. Both transformations preserve the exact item interleaving of the
// original per-item scan: the heap minimum equals the scan's
// lowest-clock/lowest-id pick, and at most one core goes idle per item, so
// the eager claim hands out the same chunk the next scan would have.
func (m *Machine) ParallelForGrain(n, chunk int, body func(ctx *Ctx, i int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 1
	}
	p := NumCores
	numChunks := (n + chunk - 1) / chunk
	s := m.acquireSched(p)
	defer m.releaseSched(s)
	m.parRegions.Inc()
	m.schedItems.Add(uint64(n))
	traceSpan := m.traceSpan
	if traceSpan != nil {
		for c := 0; c < p; c++ {
			s.startClock[c] = m.cores[c].Clock()
		}
	}

	// nextChunk[c] is the next chunk index owned by core c: OpenMP
	// schedule(static, chunk) hands core c chunks c, c+p, c+2p, ...;
	// dynamic scheduling takes chunks from a shared counter when a core
	// goes idle (Ligra-style work stealing).
	dynNext := 0
	for c := 0; c < p; c++ {
		s.itemInChunk[c] = 0
		if c >= numChunks {
			continue
		}
		s.nextChunk[c] = c
		s.heap.push(c)
	}
	if m.cfg.DynamicSchedule {
		dynNext = min(p, numChunks)
	}
	for !s.heap.empty() {
		m.checkCancel()
		sel := s.heap.min()
		k := s.nextChunk[sel]
		i := k*chunk + s.itemInChunk[sel]
		if i < n {
			body(&s.ctxs[sel], i)
			// Item boundary: settle any fold window the body opened before
			// the heap re-seats the core by its clock (deferred cycles must
			// be visible) and before another core runs.
			m.flushFold()
		}
		s.itemInChunk[sel]++
		if s.itemInChunk[sel] >= chunk || i+1 >= n {
			s.itemInChunk[sel] = 0
			next := numChunks
			if m.cfg.DynamicSchedule {
				if dynNext < numChunks {
					next = dynNext
					dynNext++
				}
			} else {
				next = k + p
			}
			if next >= numChunks {
				s.heap.pop()
				continue
			}
			s.nextChunk[sel] = next
		}
		// Only the selected core's clock advanced; re-seat it.
		s.heap.fixMin()
	}
	if traceSpan != nil {
		// Emit one span per core that did work, with clocks read before the
		// barrier aligns them (the idle tail is the interesting signal).
		for c := 0; c < p; c++ {
			end := m.cores[c].Clock()
			if end == s.startClock[c] {
				continue
			}
			traceSpan(obs.Span{
				Machine: m.cfg.Name, Core: c, Name: "parallel",
				Start: s.startClock[c], End: end,
			})
		}
	}
	m.Barrier()
}

// acquireSched hands out the machine's scheduling scratch, sized for p
// cores, or fresh state if a nested parallel region already holds it.
// The scratch is per-Machine state, never pooled across machines, so
// variant goroutines each driving their own Machine cannot share one;
// busy is only ever touched by the single goroutine driving this
// Machine (it guards re-entrancy, not concurrency).
func (m *Machine) acquireSched(p int) *schedState {
	s := &m.sched
	if s.busy {
		s = &schedState{}
	}
	s.busy = true
	if cap(s.nextChunk) < p {
		s.nextChunk = make([]int, p)
		s.itemInChunk = make([]int, p)
		s.ctxs = make([]Ctx, p)
		s.startClock = make([]memsys.Cycles, p)
		for c := range s.ctxs {
			s.ctxs[c] = Ctx{m: m, core: c}
		}
	}
	s.nextChunk = s.nextChunk[:p]
	s.itemInChunk = s.itemInChunk[:p]
	s.ctxs = s.ctxs[:p]
	s.startClock = s.startClock[:p]
	s.heap.reset(m.cores)
	return s
}

func (m *Machine) releaseSched(s *schedState) { s.busy = false }

// Barrier drains every core's outstanding-miss window and aligns all
// clocks to the maximum (bulk-synchronous region end).
func (m *Machine) Barrier() {
	m.flushFold()
	var mx memsys.Cycles
	for _, c := range m.cores {
		c.DrainWindow()
		if c.Clock() > mx {
			mx = c.Clock()
		}
	}
	for _, c := range m.cores {
		c.SetClock(mx)
	}
}

// String describes the machine briefly.
func (m *Machine) String() string {
	return fmt.Sprintf("%s: %d cores, L2 %d KB/core, SP %d KB/core, PISC=%v",
		m.cfg.Name, NumCores, m.cfg.L2BytesPerCore>>10,
		m.cfg.SPBytesPerCore>>10, m.cfg.PISC)
}
