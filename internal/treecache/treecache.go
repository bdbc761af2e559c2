// Package treecache provides the plan/tree cache behind windowd: built
// merge sort trees, preprocessed arrays and sort orders are kept resident
// across requests, keyed by (table version, window specification, tree
// options), so one O(n log n) construction answers arbitrarily many framed
// queries — the residency argument of Shi & Wang and the shared-work
// argument of Cao et al., applied across requests instead of within one.
//
// The cache is a byte-budgeted LRU with single-flight deduplication:
// concurrent requests for the same key trigger exactly one build, the
// followers block on the leader's result. It implements the
// core.TreeCache hook (GetOrBuild) and is safe for concurrent use.
package treecache

import (
	"container/list"
	"sync"
	"time"
)

// Cache is a byte-budgeted LRU of built index structures with
// single-flight build deduplication. The zero value is not usable; use New.
type Cache struct {
	mu      sync.Mutex
	budget  int64 // <= 0: unlimited
	used    int64
	entries map[string]*entry
	lru     *list.List // front = most recently used; values are *entry
	flights map[string]*flight

	// counters, guarded by mu.
	hits          int64
	misses        int64 // leader builds that populated an entry
	joins         int64 // followers deduplicated onto a leader's build
	failures      int64 // builds that returned an error
	evictions     int64
	invalidations int64
	buildTime     time.Duration
}

type entry struct {
	key string
	val any
	// bytes is what the entry is charged against the budget: the size its
	// build reported, its key, and EntryOverhead.
	bytes int64
	elem  *list.Element
}

// EntryOverhead is the fixed charge per entry for what the cache itself
// keeps beside the value and the key's bytes: the entry struct (48 B), its
// LRU list element (48 B) and its map slot (about 32 B at the map's load
// factor). With thousands of small per-partition entries behind ~150-byte
// keys, the bookkeeping is as large as the values and must count.
const EntryOverhead = 128

// flight is one in-progress build; followers block on done.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// New returns a cache that evicts least-recently-used entries once the
// summed entry sizes exceed budgetBytes. budgetBytes <= 0 disables the
// budget (nothing is ever evicted).
func New(budgetBytes int64) *Cache {
	return &Cache{
		budget:  budgetBytes,
		entries: make(map[string]*entry),
		lru:     list.New(),
		flights: make(map[string]*flight),
	}
}

// GetOrBuild returns the value cached under key, building it on a miss.
// build returns the value together with its approximate resident size in
// bytes, which counts against the cache budget together with the key and a
// fixed per-entry overhead (EntryOverhead). Concurrent callers with
// the same key trigger exactly one build: the first becomes the leader,
// the rest block until the leader finishes and share its value.
//
// If the leader's build fails (for example because the leader's request
// was cancelled), followers do not inherit the error: each retries the
// build itself, un-deduplicated, so one cancelled request can never poison
// an unrelated healthy one.
func (c *Cache) GetOrBuild(key string, build func() (value any, bytes int64, err error)) (any, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		c.hits++
		c.mu.Unlock()
		return e.val, nil
	}
	f, inFlight := c.flights[key]
	if inFlight {
		c.joins++
		c.mu.Unlock()
		<-f.done
		if f.err == nil {
			return f.val, nil
		}
		// The leader failed; build without deduplication rather than
		// propagating a foreign error.
		return c.buildDirect(key, build)
	}
	f = &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	val, err := c.buildDirect(key, build)
	f.val, f.err = val, err
	close(f.done)
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	return val, err
}

// buildDirect runs build, records timing and on success inserts the result.
func (c *Cache) buildDirect(key string, build func() (any, int64, error)) (any, error) {
	start := time.Now()
	val, bytes, err := build()
	elapsed := time.Since(start)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buildTime += elapsed
	if err != nil {
		c.failures++
		return nil, err
	}
	c.misses++
	c.insertLocked(key, val, bytes)
	return val, nil
}

// insertLocked adds (or replaces) an entry, charged its reported size plus
// its key and EntryOverhead, and evicts down to the budget.
func (c *Cache) insertLocked(key string, val any, bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	bytes += int64(len(key)) + EntryOverhead
	if old, ok := c.entries[key]; ok {
		c.used -= old.bytes
		c.lru.Remove(old.elem)
		delete(c.entries, key)
	}
	if c.budget > 0 && bytes > c.budget {
		// An entry larger than the whole budget would evict everything and
		// then be evicted itself on the next insert; don't cache it.
		return
	}
	e := &entry{key: key, val: val, bytes: bytes}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.used += bytes
	for c.budget > 0 && c.used > c.budget {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		victim := tail.Value.(*entry)
		c.lru.Remove(tail)
		delete(c.entries, victim.key)
		c.used -= victim.bytes
		c.evictions++
	}
}

// Invalidate drops every entry whose key match reports and returns how many
// were removed. The match function comes from the code that writes the keys
// (core.InScope): a dataset reload drops its old scope, a compaction its
// folded generation. A mutation drops nothing: keys name content, so the
// entries of changed partitions are no longer asked for; the LRU evicts them
// under the byte budget, or the compaction that folds their generation drops
// them.
func (c *Cache) Invalidate(match func(key string) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := 0
	for key, e := range c.entries {
		if match(key) {
			c.lru.Remove(e.elem)
			delete(c.entries, key)
			c.used -= e.bytes
			removed++
		}
	}
	c.invalidations += int64(removed)
	return removed
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Entries       int
	Bytes         int64
	Budget        int64
	Hits          int64
	Misses        int64 // = successful builds
	Joins         int64 // followers deduplicated by single-flight
	Failures      int64
	Evictions     int64
	Invalidations int64
	BuildTime     time.Duration
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:       len(c.entries),
		Bytes:         c.used,
		Budget:        c.budget,
		Hits:          c.hits,
		Misses:        c.misses,
		Joins:         c.joins,
		Failures:      c.failures,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		BuildTime:     c.buildTime,
	}
}
