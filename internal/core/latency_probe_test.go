package core

import (
	"testing"

	"omega/internal/memsys"
	"omega/internal/pisc"
	"omega/internal/scratchpad"
)

// TestLatencyProbes issues single reads to a fresh machine and checks
// their latencies against values derived by hand from Table III. The
// expected numbers are literals on purpose: a mis-copied timing constant
// in any layer (cache, crossbar, DRAM, scratchpad) moves one of them.
//
// Crossbar legs on idle ports: a control header is 8 base + 1 flit = 9, a
// 64 B line with its 8 B header is 8 + 5 flits = 13, an 8 B word packet is
// 8 + 1 = 9, and a hop to the core's own bank costs 1.
func TestLatencyProbes(t *testing.T) {
	// later is far past every warm-up message, so each queue's smoothed
	// utilization has decayed to a zero wait.
	const later memsys.Cycles = 1 << 20

	// edgeLine returns an edge-list address on the baseline machine and
	// its home L2 bank.
	edgeLine := func(m *Machine) (memsys.Addr, int) {
		r := m.Alloc("e", 4096, 8, memsys.KindEdgeList)
		a := r.Addr(100)
		return a, m.path.homeBank(memsys.LineAddr(a))
	}
	read := func(m *Machine, now memsys.Cycles, core int, a memsys.Addr, kind memsys.Kind) memsys.Result {
		acc := memsys.Access{Core: core, Addr: a, Size: 8, Op: memsys.OpRead, Kind: kind}
		if m.omega != nil {
			return m.omega.Access(now, acc)
		}
		return m.path.Access(now, acc)
	}
	// spVertex configures 1024 scratchpad-resident vertices on an OMEGA
	// machine and returns vertex 70's address and home slice.
	spVertex := func(m *Machine) (memsys.Addr, int) {
		r := m.Alloc("p", 1024, 8, memsys.KindVtxProp)
		m.ConfigureGraph([]scratchpad.MonitorRegister{m.MonitorFor(r)}, 1024,
			pisc.StandardMicrocode("probe", pisc.OpFPAdd, false, false))
		return r.Addr(70), m.omega.ctrl.Home(70)
	}

	cases := []struct {
		name  string
		cfg   Config
		probe func(m *Machine) memsys.Result
		lat   memsys.Cycles
		level memsys.Level
	}{
		{"L1 hit", Baseline(), func(m *Machine) memsys.Result {
			a, bank := edgeLine(m)
			core := (bank + 1) % NumCores
			read(m, 0, core, a, memsys.KindEdgeList)
			return read(m, later, core, a, memsys.KindEdgeList)
		}, 1, memsys.LevelL1},
		// 1 local hop + 6 L2 + 1 local hop.
		{"local-bank L2 hit", Baseline(), func(m *Machine) memsys.Result {
			a, bank := edgeLine(m)
			read(m, 0, (bank+2)%NumCores, a, memsys.KindEdgeList)
			return read(m, later, bank, a, memsys.KindEdgeList)
		}, 8, memsys.LevelL2Plus},
		// 9 control + 6 L2 + 13 line.
		{"remote-bank L2 hit", Baseline(), func(m *Machine) memsys.Result {
			a, bank := edgeLine(m)
			read(m, 0, (bank+2)%NumCores, a, memsys.KindEdgeList)
			return read(m, later, (bank+1)%NumCores, a, memsys.KindEdgeList)
		}, 28, memsys.LevelL2Plus},
		// 9 control + 6 L2 miss + 140 DRAM row miss on an idle channel +
		// 13 line.
		{"cold idle DRAM read", Baseline(), func(m *Machine) memsys.Result {
			a, bank := edgeLine(m)
			return read(m, 0, (bank+1)%NumCores, a, memsys.KindEdgeList)
		}, 168, memsys.LevelL2Plus},
		// The 3-cycle slice access.
		{"local scratchpad read", OMEGA(), func(m *Machine) memsys.Result {
			a, home := spVertex(m)
			return read(m, 0, home, a, memsys.KindVtxProp)
		}, 3, memsys.LevelSPLocal},
		// 9 control request + 9 word response + 3 slice access.
		{"remote scratchpad read", OMEGA(), func(m *Machine) memsys.Result {
			a, home := spVertex(m)
			return read(m, 0, (home+1)%NumCores, a, memsys.KindVtxProp)
		}, 21, memsys.LevelSPRemote},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := tc.probe(NewMachine(tc.cfg))
			if res.Latency != tc.lat || res.Level != tc.level {
				t.Fatalf("latency %d at %v, want %d at %v", res.Latency, res.Level, tc.lat, tc.level)
			}
		})
	}
}
