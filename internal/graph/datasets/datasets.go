// Package datasets memoizes deterministic graph construction so that the
// many experiment runners sharing one (generator, scale, seed) tuple build
// the graph once and share the result.
//
// Generated graphs are pure functions of their Key, and a built
// *graph.Graph is never mutated by the simulator (CSR arrays are
// read-only after construction), so a cached graph can be handed to any
// number of concurrent runners. Construction itself is serialized per key
// in the style of singleflight: the first caller builds while concurrent
// callers for the same key block and then share the finished graph, so a
// parallel experiment suite never generates the same dataset twice.
package datasets

import (
	"sync"
	"sync/atomic"

	"omega/internal/graph"
)

// Key identifies one deterministic dataset build. Two calls with equal
// keys must build identical graphs — the cache returns the first build's
// result for both.
type Key struct {
	// Kind names the generator recipe ("rmat", "social", "road", ...).
	Kind string
	// Scale is log2 of the vertex count the recipe was asked for.
	Scale int
	// Seed is the generator seed the recipe derives its streams from.
	Seed uint64
	// Weighted marks the edge-weighted variant.
	Weighted bool
	// Reordered marks the in-degree-reordered variant (§VI placement).
	Reordered bool
}

// entry is one cache slot. once serializes the build; panicked replays
// the failed build to every waiter of that attempt, so a generator bug
// surfaces identically for all sharers instead of as a nil graph. A
// failed entry is evicted before the panic propagates, leaving the key
// rebuildable — a transient failure must not poison the cache for the
// rest of the process.
type entry struct {
	once     sync.Once
	g        *graph.Graph
	panicked any
}

// Cache is a concurrency-safe memoization table for graph builds. The
// zero value is not usable; construct with New. A nil *Cache is valid
// everywhere and simply builds fresh on every call (the pre-cache
// behaviour).
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*entry
	hits    atomic.Uint64
	misses  atomic.Uint64
}

// New returns an empty cache.
func New() *Cache { return &Cache{entries: make(map[Key]*entry)} }

// GetOrBuild returns the graph for k, invoking build at most once per key
// across all callers. The boolean reports whether the slot already
// existed: a caller that blocks on another goroutine's in-flight build of
// the same key counts as a hit, since the generation work was shared. On
// a nil cache it calls build directly and reports a miss.
func (c *Cache) GetOrBuild(k Key, build func() *graph.Graph) (*graph.Graph, bool) {
	if c == nil {
		return build(), false
	}
	c.mu.Lock()
	e, hit := c.entries[k]
	if !hit {
		e = &entry{}
		c.entries[k] = e
	}
	c.mu.Unlock()
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				e.panicked = r
			}
		}()
		e.g = build()
	})
	if e.panicked != nil {
		// Evict the failed slot (unless a later attempt already replaced
		// it) so the key stays rebuildable, then propagate the failure to
		// this caller — every goroutine that shared the attempt gets the
		// same panic.
		c.mu.Lock()
		if c.entries[k] == e {
			delete(c.entries, k)
		}
		c.mu.Unlock()
		panic(e.panicked)
	}
	return e.g, hit
}

// Stats returns the global hit/miss totals.
func (c *Cache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// Len returns the number of resident graphs.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
