package registers

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInventoryAdd(t *testing.T) {
	inv := NewInventory()
	if err := inv.Add("r1", 4096); err != nil {
		t.Fatalf("Add(r1) failed: %v", err)
	}
	if err := inv.Add("r1", 2048); err == nil {
		t.Fatal("duplicate Add(r1) should fail")
	}
	if err := inv.Add("", 1); err == nil {
		t.Fatal("empty ID should fail")
	}
	if err := inv.Add("r2", 0); err == nil {
		t.Fatal("zero width should fail")
	}
	if err := inv.Add("r3", -5); err == nil {
		t.Fatal("negative width should fail")
	}
	if got := inv.Bits("r1"); got != 4096 {
		t.Errorf("Bits(r1) = %d, want 4096", got)
	}
	if got := inv.Bits("missing"); got != 0 {
		t.Errorf("Bits(missing) = %d, want 0", got)
	}
	if !inv.Has("r1") || inv.Has("nope") {
		t.Error("Has misbehaves")
	}
	if inv.Len() != 1 {
		t.Errorf("Len = %d, want 1", inv.Len())
	}
}

func TestInventoryMustAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAdd on duplicate should panic")
		}
	}()
	inv := NewInventory()
	inv.MustAdd("a", 1)
	inv.MustAdd("a", 1)
}

func TestInventoryOrderAndTotals(t *testing.T) {
	inv := NewInventory()
	inv.MustAdd("b", 10)
	inv.MustAdd("a", 20)
	inv.MustAdd("c", 30)
	ids := inv.IDs()
	want := []string{"b", "a", "c"}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs order = %v, want %v (insertion order)", ids, want)
		}
	}
	if inv.TotalBits() != 60 {
		t.Errorf("TotalBits = %d, want 60", inv.TotalBits())
	}
}

func TestSetOperations(t *testing.T) {
	a := NewSet("r1", "r2", "r3")
	b := NewSet("r2", "r3", "r4")

	u := Union(a, b)
	if u.Len() != 4 {
		t.Errorf("union size = %d, want 4", u.Len())
	}
	i := Intersect(a, b)
	if i.Len() != 2 || !i.Has("r2") || !i.Has("r3") {
		t.Errorf("intersection = %v, want {r2,r3}", i.IDs())
	}

	c := a.Clone()
	c.Add("r9")
	if a.Has("r9") {
		t.Error("Clone is not independent")
	}
	if !a.Equal(NewSet("r3", "r2", "r1")) {
		t.Error("Equal should ignore order")
	}
	if a.Equal(b) {
		t.Error("distinct sets reported Equal")
	}
	if a.Equal(NewSet("r1", "r2")) {
		t.Error("subset reported Equal")
	}
}

func TestSetBitsAndSharedBits(t *testing.T) {
	inv := NewInventory()
	inv.MustAdd("r1", 4096)
	inv.MustAdd("r2", 2048)
	inv.MustAdd("r3", 1024)

	s := NewSet("r1", "r3")
	if got := inv.SetBits(s); got != 5120 {
		t.Errorf("SetBits = %d, want 5120", got)
	}
	a := NewSet("r1", "r2")
	b := NewSet("r2", "r3")
	if got := inv.SharedBits(a, b); got != 2048 {
		t.Errorf("SharedBits = %d, want 2048", got)
	}
	if got := inv.SharedBits(b, a); got != 2048 {
		t.Errorf("SharedBits not symmetric: %d", got)
	}
}

// Property: |A ∪ B| + |A ∩ B| == |A| + |B| measured in bits
// (inclusion-exclusion on register sets).
func TestUnionIntersectInclusionExclusion(t *testing.T) {
	inv := NewInventory()
	ids := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i, id := range ids {
		inv.MustAdd(id, int64(1+i)*128)
	}
	f := func(maskA, maskB uint8) bool {
		a, b := make(Set), make(Set)
		for i, id := range ids {
			if maskA&(1<<i) != 0 {
				a.Add(id)
			}
			if maskB&(1<<i) != 0 {
				b.Add(id)
			}
		}
		lhs := inv.SetBits(Union(a, b)) + inv.SetBits(Intersect(a, b))
		rhs := inv.SetBits(a) + inv.SetBits(b)
		return lhs == rhs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLivenessMergeAdjacent(t *testing.T) {
	l := NewLiveness()
	for _, span := range [][2]int64{{0, 10}, {10, 20}, {30, 40}, {15, 32}} {
		if err := l.MarkLive(0, "r", span[0], span[1]); err != nil {
			t.Fatalf("MarkLive(%v): %v", span, err)
		}
	}
	ivs := l.Intervals(0, "r")
	if len(ivs) != 1 || ivs[0] != (Interval{0, 40}) {
		t.Fatalf("merged intervals = %v, want [{0 40}]", ivs)
	}
	if l.LiveCycles(0, "r") != 40 {
		t.Errorf("LiveCycles = %d, want 40", l.LiveCycles(0, "r"))
	}
	if h := l.horizon(); h != 40 {
		t.Errorf("horizon = %d, want 40", h)
	}
}

func TestLivenessDisjoint(t *testing.T) {
	l := NewLiveness()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.MarkLive(1, "r", 100, 200))
	must(l.MarkLive(1, "r", 0, 50))
	must(l.MarkLive(1, "r", 300, 310))
	ivs := l.Intervals(1, "r")
	if len(ivs) != 3 {
		t.Fatalf("want 3 disjoint intervals, got %v", ivs)
	}
	if !l.LiveAt(1, "r", 150) || l.LiveAt(1, "r", 75) || l.LiveAt(1, "r", 200) {
		t.Error("LiveAt boundary semantics wrong (half-open [start,end))")
	}
	if l.LiveCycles(1, "r") != 160 {
		t.Errorf("LiveCycles = %d, want 160", l.LiveCycles(1, "r"))
	}
}

func TestLivenessErrors(t *testing.T) {
	l := NewLiveness()
	if err := l.MarkLive(-1, "r", 0, 1); err == nil {
		t.Error("negative core accepted")
	}
	if err := l.MarkLive(0, "r", 5, 5); err == nil {
		t.Error("empty interval accepted")
	}
	if err := l.MarkLive(0, "r", 5, 2); err == nil {
		t.Error("inverted interval accepted")
	}
	if err := l.MarkLive(0, "r", -3, 2); err == nil {
		t.Error("negative start accepted")
	}
}

func TestLivenessExposure(t *testing.T) {
	inv := NewInventory()
	inv.MustAdd("a", 100)
	inv.MustAdd("b", 50)
	l := NewLiveness()
	_ = l.MarkLive(0, "a", 0, 10)  // 1000 bit·cycles
	_ = l.MarkLive(0, "b", 0, 20)  // 1000 bit·cycles
	_ = l.MarkLive(1, "a", 0, 100) // other core
	if got := l.Exposure(inv, 0); got != 2000 {
		t.Errorf("Exposure(core 0) = %d, want 2000", got)
	}
	if got := l.Exposure(inv, 1); got != 10000 {
		t.Errorf("Exposure(core 1) = %d, want 10000", got)
	}
	// eq. (4): average live bits per cycle over horizon 100.
	if got := l.AvgBitsPerCycle(inv, 0, 100); got != 20 {
		t.Errorf("AvgBitsPerCycle = %v, want 20", got)
	}
	if got := l.AvgBitsPerCycle(inv, 0, 0); got != 0 {
		t.Errorf("AvgBitsPerCycle with zero horizon = %v, want 0", got)
	}
	if got := l.LiveBitsAt(inv, 0, 5); got != 150 {
		t.Errorf("LiveBitsAt(5) = %d, want 150", got)
	}
	if got := l.LiveBitsAt(inv, 0, 15); got != 50 {
		t.Errorf("LiveBitsAt(15) = %d, want 50", got)
	}
	cores := l.Cores()
	if len(cores) != 2 || cores[0] != 0 || cores[1] != 1 {
		t.Errorf("Cores = %v, want [0 1]", cores)
	}
	regs := l.Registers(0)
	if len(regs) != 2 || regs[0] != "a" || regs[1] != "b" {
		t.Errorf("Registers(0) = %v, want [a b]", regs)
	}
}

// Property: random interval insertions always leave the per-register list
// sorted, disjoint, and covering exactly the union of the inputs.
func TestLivenessMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		l := NewLiveness()
		covered := make(map[int64]bool)
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			start := int64(rng.Intn(200))
			end := start + 1 + int64(rng.Intn(40))
			if err := l.MarkLive(0, "r", start, end); err != nil {
				t.Fatal(err)
			}
			for c := start; c < end; c++ {
				covered[c] = true
			}
		}
		ivs := l.Intervals(0, "r")
		var total int64
		for i, iv := range ivs {
			if iv.End <= iv.Start {
				t.Fatalf("trial %d: empty interval %v", trial, iv)
			}
			if i > 0 && ivs[i-1].End >= iv.Start {
				t.Fatalf("trial %d: intervals not disjoint/sorted: %v", trial, ivs)
			}
			total += iv.Cycles()
		}
		if total != int64(len(covered)) {
			t.Fatalf("trial %d: covered %d cycles, intervals report %d", trial, len(covered), total)
		}
		for c := int64(0); c < 250; c++ {
			if l.LiveAt(0, "r", c) != covered[c] {
				t.Fatalf("trial %d: LiveAt(%d) = %v, want %v", trial, c, l.LiveAt(0, "r", c), covered[c])
			}
		}
	}
}

func TestLivenessProfile(t *testing.T) {
	inv := NewInventory()
	inv.MustAdd("a", 100)
	inv.MustAdd("b", 60)
	l := NewLiveness()
	_ = l.MarkLive(0, "a", 0, 50)  // first half only
	_ = l.MarkLive(0, "b", 0, 100) // whole horizon
	prof := l.Profile(inv, 0, 100, 2)
	if len(prof) != 2 {
		t.Fatalf("profile = %v", prof)
	}
	// Bucket 0: a (100 bits) + b (60) = 160; bucket 1: b only = 60.
	if prof[0] != 160 || prof[1] != 60 {
		t.Errorf("profile = %v, want [160 60]", prof)
	}
	// Partial overlap distributes proportionally.
	l2 := NewLiveness()
	_ = l2.MarkLive(0, "a", 25, 75) // half of each bucket
	p2 := l2.Profile(inv, 0, 100, 2)
	if p2[0] != 50 || p2[1] != 50 {
		t.Errorf("partial profile = %v, want [50 50]", p2)
	}
	if l.Profile(inv, 0, 0, 2) != nil || l.Profile(inv, 0, 100, 0) != nil {
		t.Error("degenerate profiles should be nil")
	}
}

// TestProfileMatchesSets holds Profile's bitmask unions to the map sets:
// for random footprints over inventories on both sides of a word boundary,
// the width of an OR of masks must equal the width of the union of the
// sets, and UnionBits must measure one more footprint without changing
// the mask.
func TestProfileMatchesSets(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, size := range []int{1, 63, 64, 65, 130, 300} {
		inv := NewInventory()
		ids := make([]string, size)
		for i := range ids {
			ids[i] = fmt.Sprintf("r%d", i)
			inv.MustAdd(ids[i], 1+rng.Int63n(4096))
		}
		sets := make([]Set, 12)
		for i := range sets {
			sets[i] = NewSet()
			for k := rng.Intn(size/2 + 2); k > 0; k-- {
				sets[i].Add(ids[rng.Intn(size)])
			}
		}
		prof := NewProfile(inv, len(sets), func(i int) Set { return sets[i] })
		for trial := 0; trial < 50; trial++ {
			mask := make([]uint64, prof.Words())
			union := NewSet()
			for _, i := range rng.Perm(len(sets))[:rng.Intn(len(sets))] {
				prof.Or(mask, i)
				union = Union(union, sets[i])
			}
			if got, want := prof.Bits(mask), inv.SetBits(union); got != want {
				t.Fatalf("size %d: Bits = %d, SetBits of the union = %d", size, got, want)
			}
			before := append([]uint64(nil), mask...)
			next := rng.Intn(len(sets))
			if got, want := prof.UnionBits(mask, next), inv.SetBits(Union(union, sets[next])); got != want {
				t.Fatalf("size %d: UnionBits = %d, want %d", size, got, want)
			}
			for w := range mask {
				if mask[w] != before[w] {
					t.Fatalf("size %d: UnionBits changed the mask", size)
				}
			}
		}
	}
}
