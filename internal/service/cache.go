package service

import (
	"container/list"

	"seadopt"
)

// cacheEntry is a finished optimization result, content-addressed by its
// ProblemKey: the wire-encoded Design plus the human summary, the size of
// the exploration that produced it and its telemetry snapshot.
type cacheEntry struct {
	key     string
	result  []byte // Design wire JSON (seadopt.Design.MarshalJSON)
	summary string
	total   int // scaling combinations explored
	stats   *seadopt.ExploreStats
	// journaled is set once the durable store holds a done result record
	// for key, so a hit on this entry can be journaled by key alone.
	journaled bool
}

// lruCache is a fixed-capacity LRU over finished results. It is not
// goroutine-safe; the Server serializes access under its mutex.
type lruCache struct {
	cap       int
	ll        *list.List // front = most recently used; values are *cacheEntry
	m         map[string]*list.Element
	evictions int64 // entries dropped by the capacity bound, ever
}

// newLRUCache returns a cache holding at most capacity entries; a
// non-positive capacity disables caching entirely (every Get misses, every
// Add is dropped).
func newLRUCache(capacity int) *lruCache {
	return &lruCache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

// Get returns the entry for key and promotes it to most-recently-used.
func (c *lruCache) Get(key string) (*cacheEntry, bool) {
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// Add inserts (or refreshes) an entry, evicting the least-recently-used
// entry beyond capacity.
func (c *lruCache) Add(e *cacheEntry) {
	if c.cap <= 0 {
		return
	}
	if el, ok := c.m[e.key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.m[e.key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// Len returns the number of cached results.
func (c *lruCache) Len() int { return c.ll.Len() }

// Evictions returns how many entries the capacity bound has dropped since
// the cache was created.
func (c *lruCache) Evictions() int64 { return c.evictions }
