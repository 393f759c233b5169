package service

import (
	"container/list"

	"seadopt"
)

// cacheEntry is a finished optimization result, content-addressed by its
// ProblemKey: the wire-encoded Design plus the human summary, the size of
// the exploration that produced it and its telemetry snapshot. The result
// cache and every done job the result finished share one entry.
type cacheEntry struct {
	result  []byte // Design wire JSON (seadopt.Design.MarshalJSON)
	summary string
	total   int // scaling combinations explored
	stats   *seadopt.ExploreStats
	// journaled is set once the durable store holds a done result record
	// for the entry's key, so a hit on it can be journaled by key alone.
	journaled bool
}

// lru is a fixed-capacity least-recently-used map. It is not
// goroutine-safe; its owner serializes access under its own mutex.
type lru[V any] struct {
	cap       int
	ll        *list.List // front = most recently used; values are *lruItem[V]
	m         map[string]*list.Element
	evictions int64 // entries dropped by the capacity bound, ever
}

type lruItem[V any] struct {
	key string
	val V
}

// newLRU returns an lru holding at most capacity entries; a non-positive
// capacity holds none (every Get misses, every Add is dropped).
func newLRU[V any](capacity int) *lru[V] {
	return &lru[V]{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

// Get returns the value for key and promotes it to most-recently-used.
func (c *lru[V]) Get(key string) (V, bool) {
	el, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem[V]).val, true
}

// Add inserts (or replaces) key's value as most-recently-used, evicting the
// least-recently-used entry beyond capacity.
func (c *lru[V]) Add(key string, v V) {
	if c.cap <= 0 {
		return
	}
	if el, ok := c.m[key]; ok {
		el.Value.(*lruItem[V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&lruItem[V]{key: key, val: v})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*lruItem[V]).key)
		c.evictions++
	}
}

// Len returns the number of entries held.
func (c *lru[V]) Len() int { return c.ll.Len() }

// Evictions returns how many entries the capacity bound has dropped since
// the lru was created.
func (c *lru[V]) Evictions() int64 { return c.evictions }
