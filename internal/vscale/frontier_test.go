package vscale

import (
	"fmt"
	"testing"

	"seadopt/internal/arch"
)

// TestNextScalingRejectsMalformedInput: non-monotone vectors, entries < 1
// and empty input must return ok=false instead of walking garbage.
func TestNextScalingRejectsMalformedInput(t *testing.T) {
	for _, bad := range [][]int{
		nil,
		{},
		{0},
		{-1, -1},
		{1, 2},       // increasing
		{3, 1, 2},    // non-monotone tail
		{2, 0, 1},    // entry below 1 hidden mid-vector
		{3, 3, 3, 4}, // increasing at the end
	} {
		if next, ok := NextScaling(bad); ok {
			t.Errorf("NextScaling(%v) accepted malformed input, returned %v", bad, next)
		}
	}
	// Well-formed inputs still advance.
	if _, ok := NextScaling([]int{3, 2, 2}); !ok {
		t.Error("NextScaling rejected a canonical vector")
	}
}

func TestValid(t *testing.T) {
	for _, s := range [][]int{{1}, {3, 3, 1}, {5, 4, 3, 2, 1}} {
		if !Valid(s) {
			t.Errorf("Valid(%v) = false", s)
		}
	}
	for _, s := range [][]int{nil, {}, {0}, {1, 2}, {2, 3, 1}} {
		if Valid(s) {
			t.Errorf("Valid(%v) = true", s)
		}
	}
}

// TestUnrankMatchesEnumeration: random access must agree with the walked
// sequence at every index, across a spread of space shapes.
func TestUnrankMatchesEnumeration(t *testing.T) {
	for _, tc := range []struct{ cores, levels int }{
		{1, 1}, {1, 4}, {4, 1}, {4, 3}, {3, 4}, {5, 3}, {2, 6}, {6, 2},
	} {
		sp, err := UniformSpace(tc.cores, tc.levels)
		if err != nil {
			t.Fatal(err)
		}
		all, err := All(tc.cores, tc.levels)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != Count(tc.cores, tc.levels) {
			t.Fatalf("%d×%d: All yields %d, Count says %d", tc.cores, tc.levels, len(all), Count(tc.cores, tc.levels))
		}
		for i, want := range all {
			got, err := sp.Unrank(i)
			if err != nil {
				t.Fatalf("%d×%d Unrank(%d): %v", tc.cores, tc.levels, i, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%d×%d Unrank(%d) = %v, enumeration has %v", tc.cores, tc.levels, i, got, want)
			}
			r, err := sp.Rank(want)
			if err != nil {
				t.Fatalf("%d×%d Rank(%v): %v", tc.cores, tc.levels, want, err)
			}
			if r != i {
				t.Fatalf("%d×%d Rank(%v) = %d, want %d", tc.cores, tc.levels, want, r, i)
			}
		}
	}
	sp, err := UniformSpace(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Unrank(15); err == nil {
		t.Error("Unrank accepted an out-of-range rank")
	}
	if _, err := sp.Unrank(-1); err == nil {
		t.Error("Unrank accepted a negative rank")
	}
	sp, err = UniformSpace(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Rank([]int{4, 1}); err == nil {
		t.Error("Rank accepted a vector above the level table")
	}
}

// TestFrontierStreamsEnumeration: the streaming frontier yields exactly the
// Fig. 5 sequence with identity indices, without materializing it.
func TestFrontierStreamsEnumeration(t *testing.T) {
	sp, err := UniformSpace(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := sp.Frontier()
	all, _ := All(4, 3)
	if f.Size() != len(all) {
		t.Fatalf("Size() = %d, want %d", f.Size(), len(all))
	}
	for i := 0; ; i++ {
		c, ok := f.Next()
		if !ok {
			if i != len(all) {
				t.Fatalf("frontier ended after %d combos, want %d", i, len(all))
			}
			break
		}
		if c.Index != i {
			t.Fatalf("combo %d carries index %d", i, c.Index)
		}
		if fmt.Sprint(c.Scaling) != fmt.Sprint(all[i]) {
			t.Fatalf("combo %d = %v, want %v", i, c.Scaling, all[i])
		}
	}
	if _, ok := f.Next(); ok {
		t.Error("exhausted frontier yielded another combo")
	}
}

// TestSampledFrontier: distinct in-range indices in ascending order, exact
// budget, deterministic per seed, degrading to the full enumeration when
// the budget covers the space.
func TestSampledFrontier(t *testing.T) {
	sp, err := UniformSpace(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed int64, budget int) []Combo {
		f, err := sp.SampledFrontier(budget, seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []Combo
		for {
			c, ok := f.Next()
			if !ok {
				return out
			}
			out = append(out, c)
		}
	}
	total := Count(6, 4) // 84
	a := draw(7, 20)
	if len(a) != 20 {
		t.Fatalf("sampled %d combos, want 20", len(a))
	}
	seen := map[int]bool{}
	prev := -1
	for _, c := range a {
		if c.Index <= prev {
			t.Fatalf("sample indices not strictly ascending: %d after %d", c.Index, prev)
		}
		prev = c.Index
		if c.Index < 0 || c.Index >= total {
			t.Fatalf("sample index %d outside [0,%d)", c.Index, total)
		}
		if seen[c.Index] {
			t.Fatalf("duplicate sample index %d", c.Index)
		}
		seen[c.Index] = true
		want, _ := sp.Unrank(c.Index)
		if fmt.Sprint(c.Scaling) != fmt.Sprint(want) {
			t.Fatalf("sample combo %d scaling %v, want %v", c.Index, c.Scaling, want)
		}
	}
	b := draw(7, 20)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("same seed drew different samples")
	}
	c := draw(8, 20)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Error("different seeds drew identical samples (astronomically unlikely)")
	}
	full := draw(7, 1000) // budget beyond the space: whole enumeration
	if len(full) != total {
		t.Fatalf("oversized budget yielded %d combos, want %d", len(full), total)
	}
}

// TestRankedFrontierMatchesAllByPower: lazy best-first generation must
// reproduce the materialize-and-sort reference order.
func TestRankedFrontierMatchesAllByPower(t *testing.T) {
	for _, tc := range []struct{ cores, levels int }{{4, 3}, {3, 4}, {5, 2}, {2, 2}} {
		table, err := arch.ARM7LevelsFor(min(tc.levels, 4))
		if err != nil {
			t.Fatal(err)
		}
		table = table[:tc.levels]
		p, err := arch.NewPlatform(tc.cores, table)
		if err != nil {
			t.Fatal(err)
		}
		want, err := AllByPower(p)
		if err != nil {
			t.Fatal(err)
		}
		weights := make([]float64, tc.levels)
		for i, l := range p.Levels(0) {
			weights[i] = l.FreqHz() * l.Vdd * l.Vdd
		}
		sp, err := UniformSpace(tc.cores, tc.levels)
		if err != nil {
			t.Fatal(err)
		}
		columns := make([][]float64, tc.cores)
		for c := range columns {
			columns[c] = weights
		}
		f, err := sp.RankedFrontier(columns)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			c, ok := f.Next()
			if !ok {
				t.Fatalf("%d×%d: ranked frontier ended at %d of %d", tc.cores, tc.levels, i, len(want))
			}
			if fmt.Sprint(c.Scaling) != fmt.Sprint(want[i]) {
				t.Fatalf("%d×%d ranked[%d] = %v, want %v", tc.cores, tc.levels, i, c.Scaling, want[i])
			}
			if r, _ := sp.Rank(c.Scaling); r != c.Index {
				t.Fatalf("%d×%d ranked[%d] carries index %d, Rank says %d", tc.cores, tc.levels, i, c.Index, r)
			}
		}
		if _, ok := f.Next(); ok {
			t.Errorf("%d×%d: ranked frontier over-produced", tc.cores, tc.levels)
		}
	}
}
