package core

import (
	"omega/internal/faults"
	"omega/internal/memsys"
	"omega/internal/memsys/noc"
	"omega/internal/pisc"
	"omega/internal/scratchpad"
	"omega/internal/stats"
)

// baselineHier is the baseline machine's memory system: the cache path and
// nothing else.
type baselineHier struct {
	*cachePath
}

// BeginIteration is a no-op: the baseline has no iteration-scoped state.
func (h *baselineHier) BeginIteration() {}

// omegaHier is the OMEGA heterogeneous memory system: a scratchpad
// controller with PISC engines in front of a (half-sized) cache path.
// vtxProp accesses to scratchpad-resident vertices are served at word
// granularity by local or remote slices; atomics among them are offloaded
// to the home PISC; everything else flows through the cache path.
type omegaHier struct {
	*cachePath
	ctrl    *scratchpad.Controller
	engines []*pisc.Engine
	xbar    *noc.Crossbar
	cfg     Config
	faults  *faults.Injector // nil when injection is disabled

	offloads    stats.Counter
	spAtomics   stats.Counter // atomics executed at SP without PISC
	remoteReads stats.Counter
}

func newOmegaHier(cfg Config, path *cachePath, xbar *noc.Crossbar, inj *faults.Injector) *omegaHier {
	h := &omegaHier{
		cachePath: path,
		ctrl: scratchpad.NewController(scratchpad.Config{
			BytesPerCore: cfg.SPBytesPerCore,
			ChunkSize:    cfg.chunkSize(),
		}),
		xbar:   xbar,
		cfg:    cfg,
		faults: inj,
	}
	for c := 0; c < NumCores; c++ {
		h.engines = append(h.engines, pisc.NewEngine())
	}
	return h
}

// BeginIteration invalidates the source vertex buffers (paper §V.C).
func (h *omegaHier) BeginIteration() { h.ctrl.InvalidateSrcBufs() }

// Access routes one access through the heterogeneous hierarchy.
func (h *omegaHier) Access(now memsys.Cycles, a memsys.Access) memsys.Result {
	if a.Kind == memsys.KindVtxProp {
		if v, resident := h.ctrl.Match(a.Addr); resident {
			if h.faults != nil {
				if trip, penalty := h.faults.SPParity(); trip {
					return h.degrade(now, a, v, penalty)
				}
			}
			return h.spAccess(now, a, v)
		}
	}
	return h.cachePath.Access(now, a)
}

// degrade is the graceful-degradation path for a scratchpad parity error
// (§resilience): the vertex line is marked bad — this and every later
// access to it fall back to the cache hierarchy, so OMEGA keeps running
// slower instead of wrong. The tripping access pays the detection penalty
// on top of its cache-path latency.
func (h *omegaHier) degrade(now memsys.Cycles, a memsys.Access, v uint32, penalty memsys.Cycles) memsys.Result {
	if h.ctrl.MarkFaulty(v) {
		h.faults.NoteSPDegraded()
	}
	// A parity trip re-routes this vertex to the cache hierarchy for good:
	// conservatively drop every core's same-line memo so the next read on
	// any core re-probes under the new routing — the degraded vertex is
	// shared state, not private to the tripping core.
	h.dropMemos()
	res := h.cachePath.Access(now, a)
	res.Latency += penalty
	res.Level = memsys.LevelSPDegraded
	return res
}

// spAccess serves a scratchpad-resident vtxProp access.
func (h *omegaHier) spAccess(now memsys.Cycles, a memsys.Access, v uint32) memsys.Result {
	home := h.ctrl.Home(v)
	local := home == a.Core
	h.ctrl.RecordAccess(local)
	size := int(a.Size)
	if size <= 0 || size > 8 {
		size = 8
	}

	switch a.Op {
	case memsys.OpAtomic:
		if h.cfg.PISC {
			// Offload: one word packet carries the operand and vertex ID
			// (§V.E custom packets of up to 64 bits).
			h.offloads.Inc()
			var sendLat memsys.Cycles
			if local {
				sendLat = 1
				h.xbar.Send(now, a.Core, home, size, noc.ClassWord)
			} else {
				sendLat = h.xbar.Send(now, a.Core, home, size, noc.ClassWord)
			}
			stall, _ := h.engines[home].Offload(now + sendLat)
			return memsys.Result{Latency: stall, Offloaded: true, Level: memsys.LevelPISC}
		}
		// Scratchpads without PISC (§X.A ablation): the core performs
		// the read-modify-write itself. The controller locks only the
		// word (§VIII), so the core blocks for the read round trip and
		// the ALU op; the unlocking write is posted.
		h.spAtomics.Inc()
		var lat memsys.Cycles
		if local {
			lat = SPLat + 2
			h.xbar.Send(now, a.Core, home, size, noc.ClassWord)
		} else {
			rt := h.xbar.RoundTrip(now, a.Core, home, 0, size, noc.ClassWord)
			lat = rt + SPLat + 2
			h.xbar.Send(now+lat, a.Core, home, size, noc.ClassWord)
		}
		return memsys.Result{Latency: lat, Blocking: true, Level: memsys.LevelSPAtomic}

	case memsys.OpRead:
		if a.SrcRead && h.ctrl.SrcBufLookup(a.Core, v) {
			return memsys.Result{Latency: 1, Level: memsys.LevelSrcBuf}
		}
		if local {
			return memsys.Result{Latency: SPLat, Level: memsys.LevelSPLocal}
		}
		h.remoteReads.Inc()
		lat := h.xbar.RoundTrip(now, a.Core, home, 0, size, noc.ClassWord) + SPLat
		return memsys.Result{Latency: lat, Level: memsys.LevelSPRemote}

	default: // OpWrite
		return h.spWrite(now, a.Core, home, local, size)
	}
}

// spWrite models a posted (non-blocking) word write to a slice.
func (h *omegaHier) spWrite(now memsys.Cycles, core, home int, local bool, size int) memsys.Result {
	if local {
		h.xbar.Send(now, core, home, size, noc.ClassWord)
		return memsys.Result{Latency: SPLat, Level: memsys.LevelSPLocal}
	}
	lat := h.xbar.Send(now, core, home, size, noc.ClassWord) + SPLat
	return memsys.Result{Latency: lat, Level: memsys.LevelSPRemote}
}

// configure loads monitor registers and microcode.
func (h *omegaHier) configure(monitors []scratchpad.MonitorRegister, totalVertices int, mc pisc.Microcode) int {
	n := h.ctrl.Configure(monitors, totalVertices)
	for _, e := range h.engines {
		e.LoadMicrocode(mc)
	}
	return n
}
