package core

import (
	"testing"

	"omega/internal/memsys"
)

// streamRead walks a region sequentially on one core.
func streamRead(m *Machine, r *Region) MachineStats {
	sequential(m, func(ctx *Ctx) {
		for i := 0; i < r.Count; i++ {
			ctx.Read(r, i)
		}
	})
	return m.Stats()
}

func TestPrefetcherReducesStreamMisses(t *testing.T) {
	mk := func(prefetch bool) MachineStats {
		cfg := testBaseline()
		cfg.L1Prefetch = prefetch
		cfg.LLCPollution = 0
		m := NewMachine(cfg)
		r := m.Alloc("stream", 64<<10/4, 4, memsys.KindEdgeList)
		return streamRead(m, r)
	}
	off := mk(false)
	on := mk(true)
	if on.L1HitRate <= off.L1HitRate {
		t.Fatalf("prefetcher should raise stream L1 hit rate: %.3f vs %.3f",
			on.L1HitRate, off.L1HitRate)
	}
	if on.Cycles >= off.Cycles {
		t.Fatalf("prefetcher should speed up streaming: %d vs %d", on.Cycles, off.Cycles)
	}
}

func TestPrefetcherIgnoresRandomVtxProp(t *testing.T) {
	cfg := testBaseline()
	cfg.L1Prefetch = true
	cfg.LLCPollution = 0
	m := NewMachine(cfg)
	r := m.Alloc("props", 4096, 8, memsys.KindVtxProp)
	sequential(m, func(ctx *Ctx) {
		for i := 0; i < 2000; i++ {
			ctx.Read(r, (i*2654435761)%4096)
		}
	})
	if got := m.path.Prefetches.Value(); got != 0 {
		t.Fatalf("vtxProp accesses must not trigger the stream prefetcher: %d", got)
	}
}

func TestPrefetchCounted(t *testing.T) {
	cfg := testBaseline()
	cfg.L1Prefetch = true
	cfg.LLCPollution = 0
	m := NewMachine(cfg)
	r := m.Alloc("stream", 4096, 4, memsys.KindEdgeList)
	streamRead(m, r)
	if m.path.Prefetches.Value() == 0 {
		t.Fatal("streaming should issue prefetches")
	}
}

func TestPrefetchDefaultOff(t *testing.T) {
	// Table III lists no prefetcher; the default configurations must not
	// enable one.
	if Baseline().L1Prefetch || OMEGA().L1Prefetch {
		t.Fatal("prefetcher must default off")
	}
	b, o := ScaledPair(4096, 8, 0.2)
	if b.L1Prefetch || o.L1Prefetch {
		t.Fatal("scaled machines must not enable the prefetcher")
	}
}
