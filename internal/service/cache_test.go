package service

import (
	"fmt"
	"slices"
	"testing"

	"seadopt"
)

func entry(i int) *cacheEntry {
	return &cacheEntry{result: []byte(fmt.Sprintf("r%d", i)), total: i}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRU[*cacheEntry](2)
	c.Add("k1", entry(1))
	c.Add("k2", entry(2))
	if _, ok := c.Get("k1"); !ok {
		t.Fatal("k1 evicted below capacity")
	}
	// k1 is now most recent; adding k3 evicts k2.
	c.Add("k3", entry(3))
	if _, ok := c.Get("k2"); ok {
		t.Fatal("k2 survived past capacity")
	}
	if _, ok := c.Get("k1"); !ok {
		t.Fatal("recently-used k1 evicted")
	}
	if _, ok := c.Get("k3"); !ok {
		t.Fatal("fresh k3 missing")
	}
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
}

func TestLRUCacheRefresh(t *testing.T) {
	c := newLRU[*cacheEntry](2)
	c.Add("k1", entry(1))
	e := entry(1)
	e.result = []byte("updated")
	c.Add("k1", e)
	if c.Len() != 1 {
		t.Fatalf("refreshing an entry grew the cache to %d", c.Len())
	}
	got, ok := c.Get("k1")
	if !ok || string(got.result) != "updated" {
		t.Fatalf("refresh lost: %v %q", ok, got.result)
	}
}

func TestLRUCacheDisabled(t *testing.T) {
	c := newLRU[*cacheEntry](-1)
	c.Add("k1", entry(1))
	if _, ok := c.Get("k1"); ok {
		t.Fatal("disabled cache stored an entry")
	}
	if c.Len() != 0 {
		t.Fatal("disabled cache non-empty")
	}
}

// TestWarmRegistryEviction: at capacity the next new key evicts the least
// recently used one, and reading a key's frontier marks it used.
func TestWarmRegistryEviction(t *testing.T) {
	point := func(c int) []seadopt.WarmPoint {
		return []seadopt.WarmPoint{{Combination: c, Makespan: float64(c), Gamma: 1}}
	}
	r := newWarmRegistry(2)
	r.RecordFrontier("a", point(1))
	r.RecordFrontier("b", point(2))
	if got := r.Frontier("a"); !slices.Equal(got, point(1)) {
		t.Fatalf("frontier for a = %v, want %v", got, point(1))
	}
	// a was just read, so b is the least recently used key.
	r.RecordFrontier("c", point(3))
	if got := r.Frontier("b"); got != nil {
		t.Fatalf("least recently used key b survived with frontier %v", got)
	}
	for key, want := range map[string][]seadopt.WarmPoint{"a": point(1), "c": point(3)} {
		if got := r.Frontier(key); !slices.Equal(got, want) {
			t.Fatalf("frontier for %s = %v, want %v", key, got, want)
		}
	}
}
