package datasets

import (
	"sync"
	"sync/atomic"
	"testing"

	"omega/internal/graph"
)

func tinyGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n, false)
	for v := 0; v < n-1; v++ {
		b.AddEdge(uint32(v), uint32(v+1), 1)
	}
	return b.Build("tiny")
}

func TestGetOrBuildMemoizes(t *testing.T) {
	c := New()
	var builds atomic.Int32
	build := func() *graph.Graph {
		builds.Add(1)
		return tinyGraph(4)
	}
	k := Key{Kind: "rmat", Scale: 10, Seed: 42, Reordered: true}
	g1, hit1 := c.GetOrBuild(k, build)
	g2, hit2 := c.GetOrBuild(k, build)
	if hit1 || !hit2 {
		t.Fatalf("hit flags = %v, %v; want false, true", hit1, hit2)
	}
	if g1 != g2 {
		t.Fatal("same key must share one graph instance")
	}
	if builds.Load() != 1 {
		t.Fatalf("build ran %d times, want 1", builds.Load())
	}
	if h, m := c.Stats(); h != 1 || m != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", h, m)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

func TestGetOrBuildDistinctKeys(t *testing.T) {
	c := New()
	var builds atomic.Int32
	build := func() *graph.Graph {
		builds.Add(1)
		return tinyGraph(3)
	}
	keys := []Key{
		{Kind: "rmat", Scale: 10, Seed: 42},
		{Kind: "rmat", Scale: 11, Seed: 42},
		{Kind: "rmat", Scale: 10, Seed: 43},
		{Kind: "social", Scale: 10, Seed: 42},
		{Kind: "rmat", Scale: 10, Seed: 42, Weighted: true},
		{Kind: "rmat", Scale: 10, Seed: 42, Reordered: true},
	}
	for _, k := range keys {
		if _, hit := c.GetOrBuild(k, build); hit {
			t.Fatalf("key %+v should miss", k)
		}
	}
	if int(builds.Load()) != len(keys) {
		t.Fatalf("builds = %d, want %d", builds.Load(), len(keys))
	}
}

// TestGetOrBuildSingleflight checks that concurrent callers of one key
// share a single build: everyone gets the same graph and the build
// function runs exactly once.
func TestGetOrBuildSingleflight(t *testing.T) {
	c := New()
	var builds atomic.Int32
	release := make(chan struct{})
	build := func() *graph.Graph {
		builds.Add(1)
		<-release // hold the build so the others pile up on the slot
		return tinyGraph(5)
	}
	const callers = 16
	got := make([]*graph.Graph, callers)
	var started, wg sync.WaitGroup
	started.Add(callers)
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			started.Done()
			g, _ := c.GetOrBuild(Key{Kind: "rmat", Scale: 9, Seed: 1}, build)
			got[i] = g
		}(i)
	}
	started.Wait()
	close(release)
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("build ran %d times under contention, want 1", builds.Load())
	}
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different graph instance", i)
		}
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != callers-1 {
		t.Fatalf("stats = %d hits / %d misses, want %d/1", hits, misses, callers-1)
	}
}

func TestNilCacheBuildsFresh(t *testing.T) {
	var c *Cache
	var builds atomic.Int32
	build := func() *graph.Graph {
		builds.Add(1)
		return tinyGraph(2)
	}
	k := Key{Kind: "rmat"}
	c.GetOrBuild(k, build)
	c.GetOrBuild(k, build)
	if builds.Load() != 2 {
		t.Fatalf("nil cache must build every time: %d builds", builds.Load())
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Fatalf("nil cache stats = %d/%d, want 0/0", h, m)
	}
	if c.Len() != 0 {
		t.Fatal("nil cache has no entries")
	}
}

// TestPanicReplays checks that a panicking build is replayed to every
// caller of the key instead of handing out a nil graph.
func TestPanicReplays(t *testing.T) {
	c := New()
	k := Key{Kind: "bad"}
	boom := func() *graph.Graph { panic("generator bug") }
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if r := recover(); r != "generator bug" {
					t.Fatalf("call %d: recovered %v, want generator bug", i, r)
				}
			}()
			c.GetOrBuild(k, boom)
			t.Fatalf("call %d: should have panicked", i)
		}()
	}
}

// TestFailedBuildLeavesKeyRebuildable: a failed build must not poison
// the slot — a later caller with a working build function succeeds.
func TestFailedBuildLeavesKeyRebuildable(t *testing.T) {
	c := New()
	k := Key{Kind: "flaky", Scale: 8, Seed: 3}
	func() {
		defer func() {
			if r := recover(); r != "transient failure" {
				t.Fatalf("recovered %v, want transient failure", r)
			}
		}()
		c.GetOrBuild(k, func() *graph.Graph { panic("transient failure") })
	}()
	if c.Len() != 0 {
		t.Fatalf("failed entry still resident: len = %d, want 0", c.Len())
	}
	g, hit := c.GetOrBuild(k, func() *graph.Graph { return tinyGraph(3) })
	if g == nil || hit {
		t.Fatalf("rebuild after failure: graph=%v hit=%v, want non-nil miss", g, hit)
	}
	// The successful build is now cached normally.
	g2, hit2 := c.GetOrBuild(k, func() *graph.Graph { t.Fatal("must not rebuild"); return nil })
	if g2 != g || !hit2 {
		t.Fatal("successful rebuild was not cached")
	}
}

// TestFailedBuildPropagatesToConcurrentWaiters: every goroutine blocked
// on an in-flight build that fails must observe the same panic, and the
// key must afterwards be rebuildable.
func TestFailedBuildPropagatesToConcurrentWaiters(t *testing.T) {
	c := New()
	k := Key{Kind: "flaky", Scale: 9, Seed: 4}
	release := make(chan struct{})
	var builds atomic.Int32
	boom := func() *graph.Graph {
		builds.Add(1)
		<-release
		panic("shared failure")
	}
	const callers = 8
	panics := make([]any, callers)
	var started, wg sync.WaitGroup
	started.Add(callers)
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			started.Done()
			c.GetOrBuild(k, boom)
		}(i)
	}
	started.Wait()
	close(release)
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("build ran %d times, want 1 (waiters share the attempt)", builds.Load())
	}
	for i, p := range panics {
		if p != "shared failure" {
			t.Fatalf("caller %d recovered %v, want shared failure", i, p)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("failed entry still resident: len = %d, want 0", c.Len())
	}
	g, _ := c.GetOrBuild(k, func() *graph.Graph { return tinyGraph(4) })
	if g == nil {
		t.Fatal("key not rebuildable after shared failure")
	}
}
