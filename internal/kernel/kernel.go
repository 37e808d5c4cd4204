// Package kernel provides the plan-shape cache behind the engine's compiled
// maintenance kernels (internal/moo, Options.CompiledKernels): a canonical,
// collision-free key for the shape of one per-(node, delta-relation)
// maintenance step, and a small hit-counting cache mapping keys to compiled
// kernels.
//
// The key is an injective serialization, not a hash: two shapes map to the
// same key if and only if they are equal, so a cache hit can never hand a
// maintenance pass the wrong kernel. Every field is emitted with an explicit
// length or a quoted delimiter, which makes the encoding a decodable grammar
// — the property the FuzzShapeKey target exercises with random shape pairs.
package kernel

import (
	"strconv"
	"strings"
	"sync"
)

// Shape canonically describes the plan shape of one maintenance step: the
// join-tree node and delta relation it serves, the dirty view subset it
// recomputes, the delta views it substitutes for cached inputs, and the
// semi-join restriction it may apply. Engines key their kernel caches by
// Key() and hold the kernels of one plan at a time, so equal shapes share one
// compiled kernel and distinct shapes never collide.
type Shape struct {
	// Relation is the delta's base relation (the bag relation for deltas
	// folded into a materialized hypertree bag); Node the join-tree node the
	// step scans and Group the logical plan group it recomputes.
	Relation string
	Node     int
	Group    int
	// AtDelta marks the step at the changed node itself, which scans the
	// delta's tuple blocks instead of a base relation.
	AtDelta bool
	// Compiled mirrors Options.Compiled: it changes the compiled group plan
	// (closure composition and slot interning), so it is part of the shape.
	Compiled bool
	// Dirty lists the view IDs the step recomputes, ascending; DeltaInputs
	// the input view IDs read from the delta state instead of the cache.
	Dirty       []int
	DeltaInputs []int
	// SemiJoin holds, per delta input, the attribute IDs of the semi-join
	// probe key (ivm.Step.SemiJoinAttrs). A nil outer slice means the step
	// has no semi-join plan; a nil inner slice an unrestricted input.
	SemiJoin [][]int64
}

// Key returns the shape's canonical cache key. The encoding is injective:
// the relation name is strconv-quoted (delimiters inside it stay escaped),
// every slice is length-prefixed, and nil is encoded distinctly from empty —
// so Key(a) == Key(b) exactly when a and b are equal shapes.
func (s *Shape) Key() string {
	var b strings.Builder
	b.WriteString("rel=")
	b.WriteString(strconv.Quote(s.Relation))
	b.WriteString("|node=")
	b.WriteString(strconv.Itoa(s.Node))
	b.WriteString("|group=")
	b.WriteString(strconv.Itoa(s.Group))
	b.WriteString("|atdelta=")
	b.WriteString(strconv.FormatBool(s.AtDelta))
	b.WriteString("|compiled=")
	b.WriteString(strconv.FormatBool(s.Compiled))
	appendInts(&b, "|dirty", s.Dirty)
	appendInts(&b, "|din", s.DeltaInputs)
	b.WriteString("|sj")
	if s.SemiJoin == nil {
		b.WriteString("=nil")
	} else {
		b.WriteString("=#")
		b.WriteString(strconv.Itoa(len(s.SemiJoin)))
		for _, attrs := range s.SemiJoin {
			if attrs == nil {
				b.WriteString("(~)")
				continue
			}
			b.WriteString("(#")
			b.WriteString(strconv.Itoa(len(attrs)))
			for i, a := range attrs {
				if i > 0 {
					b.WriteByte(',')
				} else {
					b.WriteByte(':')
				}
				b.WriteString(strconv.FormatInt(int64(a), 10))
			}
			b.WriteByte(')')
		}
	}
	return b.String()
}

func appendInts(b *strings.Builder, tag string, xs []int) {
	b.WriteString(tag)
	if xs == nil {
		b.WriteString("=nil")
		return
	}
	b.WriteString("=#")
	b.WriteString(strconv.Itoa(len(xs)))
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		} else {
			b.WriteByte(':')
		}
		b.WriteString(strconv.Itoa(x))
	}
}

// CacheStats is a point-in-time snapshot of a cache's effectiveness: Hits
// and Misses count Get calls, Size the resident kernels.
type CacheStats struct {
	Hits   uint64
	Misses uint64
	Size   int
}

// Cache maps shape keys to compiled kernels (stored as any: the kernel type
// lives in the engine layer, which owns compilation). It is safe for
// concurrent use and counts hits and misses, so benchmarks can report how
// often maintenance reuses a specialized loop instead of recompiling it.
type Cache struct {
	mu     sync.Mutex
	m      map[string]any
	hits   uint64
	misses uint64
}

// NewCache returns an empty kernel cache.
func NewCache() *Cache {
	return &Cache{m: make(map[string]any)}
}

// Get returns the kernel cached under key, counting the probe as a hit or a
// miss.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// Put stores a kernel under key, replacing any previous entry.
func (c *Cache) Put(key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = v
}

// Clear drops every cached kernel; the hit and miss counters keep counting.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.m)
}

// Stats returns the cache's hit/miss counters and current size.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Size: len(c.m)}
}
