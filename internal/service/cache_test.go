package service

import (
	"fmt"
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

// TestWarmRegistryEviction: the warm-start registry (the shared reuse
// bundles) holds at most its capacity; at capacity the next new key evicts
// the least recently used one, and reading a key's bundle marks it used.
// An evicted key comes back with a fresh bundle.
func TestWarmRegistryEviction(t *testing.T) {
	r := newReuseRegistry(2)
	a, b := r.Get("a"), r.Get("b")
	if a == b {
		t.Fatal("two keys share one bundle")
	}
	if got := r.Get("a"); got != a {
		t.Fatal("a's bundle changed below capacity")
	}
	// a was just read, so b is the least recently used key.
	c := r.Get("c")
	for key, want := range map[string]*seadopt.ExploreReuse{"a": a, "c": c} {
		if got := r.Get(key); got != want {
			t.Fatalf("bundle for %s changed after evicting b", key)
		}
	}
	if got := r.Get("b"); got == b {
		t.Fatal("least recently used key b survived")
	}
}
