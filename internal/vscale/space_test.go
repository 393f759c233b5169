package vscale

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"seadopt/internal/arch"
)

// mixedTestSpace is the canonical 4-core mixed fixture: two 3-level cores in
// one class, a 2-level core and a 4-level core. Count = C(4,2)·2·4 = 48.
func mixedTestSpace(t *testing.T) *Space {
	t.Helper()
	sp, err := NewSpace([]int{3, 3, 2, 4}, []int{0, 0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func mixedTestPlatform(t *testing.T) *arch.Platform {
	t.Helper()
	p, err := arch.NewHeterogeneousPlatform(
		[]arch.ProcType{
			{Name: "arm7x3", Levels: arch.ARM7Levels3()},
			{Name: "arm7x2", Levels: arch.ARM7Levels2()},
			{Name: "arm7x4", Levels: arch.ARM7Levels4()},
		},
		[]int{0, 0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewSpaceValidation(t *testing.T) {
	cases := []struct {
		name  string
		caps  []int
		class []int
	}{
		{"no cores", nil, nil},
		{"zero cap", []int{3, 0}, []int{0, 1}},
		{"length mismatch", []int{3, 3}, []int{0}},
		{"non-dense classes", []int{3, 3}, []int{0, 2}},
		{"class not first-occurrence ordered", []int{3, 3}, []int{1, 0}},
		{"class mixes caps", []int{3, 2}, []int{0, 0}},
	}
	for _, c := range cases {
		if _, err := NewSpace(c.caps, c.class); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	// nil class means every core is its own class.
	sp, err := NewSpace([]int{3, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.Count(); got != 6 {
		t.Errorf("independent 3×2 space Count = %d, want 6", got)
	}
}

// TestUniformSpaceMatchesLegacy: for homogeneous platforms the Space must be
// bit-identical to the Fig. 5 enumeration the Enumerator walks — same
// sequence, same Count, and Rank/Unrank indices equal to the sequence
// positions — so the generalization preserves every stable combination
// index and mapper seed.
func TestUniformSpaceMatchesLegacy(t *testing.T) {
	for _, tc := range []struct{ cores, levels int }{
		{1, 1}, {1, 4}, {4, 1}, {4, 3}, {3, 4}, {6, 2}, {2, 6}, {5, 3},
	} {
		sp, err := UniformSpace(tc.cores, tc.levels)
		if err != nil {
			t.Fatal(err)
		}
		want, err := All(tc.cores, tc.levels)
		if err != nil {
			t.Fatal(err)
		}
		got := sp.All()
		if len(got) != len(want) || sp.Count() != Count(tc.cores, tc.levels) {
			t.Fatalf("%d×%d: space has %d vectors (Count %d), legacy %d (Count %d)",
				tc.cores, tc.levels, len(got), sp.Count(), len(want), Count(tc.cores, tc.levels))
		}
		for i := range want {
			if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
				t.Fatalf("%d×%d: space[%d] = %v, legacy %v", tc.cores, tc.levels, i, got[i], want[i])
			}
			su, err := sp.Unrank(i)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(su) != fmt.Sprint(want[i]) {
				t.Fatalf("%d×%d: space.Unrank(%d) = %v, legacy %v", tc.cores, tc.levels, i, su, want[i])
			}
			sr, err := sp.Rank(want[i])
			if err != nil {
				t.Fatal(err)
			}
			if sr != i {
				t.Fatalf("%d×%d: Rank(%v) = %d, want %d", tc.cores, tc.levels, want[i], sr, i)
			}
		}
	}
}

// TestUniformSampledFrontierMatchesLegacy: the sampled draw sequence must
// stay stable so seed-keyed sampled results survive. The pinned indices are
// the draws of the homogeneous sampled frontier the Space generalized, for
// a budget of 9 over the 28 combinations of 6 cores × 3 levels; each drawn
// scaling must be the Enumerator's vector at its index.
func TestUniformSampledFrontierMatchesLegacy(t *testing.T) {
	sp, err := UniformSpace(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	all, err := All(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for seed, want := range map[int64][]int{
		0:    {1, 3, 8, 11, 13, 17, 21, 24, 25},
		7:    {0, 9, 10, 11, 14, 19, 20, 22, 26},
		2010: {2, 3, 11, 19, 21, 22, 24, 25, 27},
	} {
		f, err := sp.SampledFrontier(9, seed)
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for {
			c, ok := f.Next()
			if !ok {
				break
			}
			if fmt.Sprint(c.Scaling) != fmt.Sprint(all[c.Index]) {
				t.Fatalf("seed %d: sampled combo %d has scaling %v, enumeration %v", seed, c.Index, c.Scaling, all[c.Index])
			}
			got = append(got, c.Index)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("seed %d: sampled indices %v, pinned %v", seed, got, want)
		}
	}
}

// TestMixedSpaceEnumeration: structural properties of the mixed fixture —
// size, validity, descending-lex order, full coverage up to within-class
// permutation.
func TestMixedSpaceEnumeration(t *testing.T) {
	sp := mixedTestSpace(t)
	all := sp.All()
	if len(all) != 48 || sp.Count() != 48 {
		t.Fatalf("mixed space has %d vectors, Count %d, want 48", len(all), sp.Count())
	}
	seen := make(map[string]bool, len(all))
	for i, s := range all {
		if !sp.Valid(s) {
			t.Fatalf("enumerated invalid vector %v", s)
		}
		if seen[fmt.Sprint(s)] {
			t.Fatalf("duplicate vector %v", s)
		}
		seen[fmt.Sprint(s)] = true
		if i > 0 && fmt.Sprint(all[i-1]) <= fmt.Sprint(s) {
			// Same-length small-int vectors: string order == lex order.
			t.Fatalf("not descending lexicographic: %v after %v", s, all[i-1])
		}
	}
	// Every raw combination's canonical form is enumerated.
	var raw func(i int, cur []int)
	raw = func(i int, cur []int) {
		if i == len(sp.caps) {
			if !seen[fmt.Sprint(sp.Canonical(cur))] {
				t.Fatalf("raw combination %v has no canonical representative (canonical %v)", cur, sp.Canonical(cur))
			}
			return
		}
		for v := 1; v <= sp.caps[i]; v++ {
			cur[i] = v
			raw(i+1, cur)
		}
	}
	raw(0, make([]int, len(sp.caps)))
}

// TestMixedSpaceUnrankRankIdentity: Unrank∘Rank is the identity over the
// full space of the 4-core mixed platform, and Rank∘Unrank too.
func TestMixedSpaceUnrankRankIdentity(t *testing.T) {
	sp := mixedTestSpace(t)
	for i, s := range sp.All() {
		r, err := sp.Rank(s)
		if err != nil {
			t.Fatal(err)
		}
		if r != i {
			t.Fatalf("Rank(%v) = %d, want enumeration position %d", s, r, i)
		}
		u, err := sp.Unrank(r)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(u) != fmt.Sprint(s) {
			t.Fatalf("Unrank(Rank(%v)) = %v", s, u)
		}
	}
	if _, err := sp.Unrank(-1); err == nil {
		t.Error("Unrank(-1) accepted")
	}
	if _, err := sp.Unrank(48); err == nil {
		t.Error("Unrank(Count) accepted")
	}
	if _, err := sp.Rank([]int{1, 2, 1, 1}); err == nil {
		t.Error("Rank accepted a non-canonical vector (class order violated)")
	}
	if _, err := sp.Rank([]int{1, 1, 3, 1}); err == nil {
		t.Error("Rank accepted an out-of-cap vector")
	}
}

func TestMixedSpaceNextEdgeCases(t *testing.T) {
	sp := mixedTestSpace(t)
	if _, ok := sp.Next([]int{1, 1, 1, 1}); ok {
		t.Error("all-fastest vector has a successor")
	}
	for _, bad := range [][]int{nil, {1, 1, 1}, {1, 2, 1, 1}, {0, 1, 1, 1}, {1, 1, 3, 1}} {
		if _, ok := sp.Next(bad); ok {
			t.Errorf("malformed vector %v accepted", bad)
		}
	}
}

// TestPlatformSpaceMatchesArch: the space derived from a heterogeneous
// platform uses its level counts and symmetry classes, and the homogeneous
// platform derivation reproduces the uniform space.
func TestPlatformSpaceMatchesArch(t *testing.T) {
	p := mixedTestPlatform(t)
	sp, err := PlatformSpace(p)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sp.Caps()) != fmt.Sprint([]int{3, 3, 2, 4}) {
		t.Errorf("Caps = %v", sp.Caps())
	}
	if sp.Count() != 48 {
		t.Errorf("Count = %d, want 48", sp.Count())
	}
	hp, err := arch.NewPlatform(4, arch.ARM7Levels3())
	if err != nil {
		t.Fatal(err)
	}
	hsp, err := PlatformSpace(hp)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := All(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := hsp.All()
	if len(got) != len(legacy) {
		t.Fatalf("homogeneous platform space has %d vectors, legacy %d", len(got), len(legacy))
	}
	for i := range legacy {
		if fmt.Sprint(got[i]) != fmt.Sprint(legacy[i]) {
			t.Fatalf("homogeneous platform space[%d] = %v, legacy %v", i, got[i], legacy[i])
		}
	}
}

// TestMixedSampledFrontier: distinct, in-index-order, seed-deterministic
// draws from the mixed space.
func TestMixedSampledFrontier(t *testing.T) {
	sp := mixedTestSpace(t)
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
	a := draw(7, 10)
	b := draw(7, 10)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("same seed drew different samples")
	}
	if len(a) != 10 {
		t.Fatalf("drew %d combos, want 10", len(a))
	}
	for i, c := range a {
		if i > 0 && a[i-1].Index >= c.Index {
			t.Fatalf("sample not in ascending index order: %v", a)
		}
		u, err := sp.Unrank(c.Index)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(u) != fmt.Sprint(c.Scaling) {
			t.Fatalf("sampled combo %v disagrees with Unrank %v", c, u)
		}
	}
	if got := draw(7, 0); len(got) != 48 {
		t.Errorf("zero budget yielded %d combos, want the whole space", len(got))
	}
}

// TestMixedRankedFrontierMatchesAllByPower: lazy best-first generation over
// the mixed platform must reproduce the materialize-and-sort power order.
func TestMixedRankedFrontierMatchesAllByPower(t *testing.T) {
	p := mixedTestPlatform(t)
	sp, err := PlatformSpace(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := AllByPower(p)
	if err != nil {
		t.Fatal(err)
	}
	weight := make([][]float64, p.Cores())
	for c := range weight {
		levels := p.Levels(c)
		weight[c] = make([]float64, len(levels))
		for i, l := range levels {
			weight[c][i] = l.FreqHz() * l.Vdd * l.Vdd
		}
	}
	f, err := sp.RankedFrontier(weight)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		c, ok := f.Next()
		if !ok {
			t.Fatalf("ranked frontier ended at %d of %d", i, len(want))
		}
		if fmt.Sprint(c.Scaling) != fmt.Sprint(want[i]) {
			t.Fatalf("ranked[%d] = %v, want %v", i, c.Scaling, want[i])
		}
		if r, _ := sp.Rank(c.Scaling); r != c.Index {
			t.Fatalf("ranked[%d] carries index %d, Rank says %d", i, c.Index, r)
		}
	}
	if _, ok := f.Next(); ok {
		t.Error("ranked frontier over-produced")
	}
}

func TestRankedFrontierWeightValidation(t *testing.T) {
	sp := mixedTestSpace(t)
	if _, err := sp.RankedFrontier(nil); err == nil {
		t.Error("missing weights accepted")
	}
	if _, err := sp.RankedFrontier([][]float64{{3, 2, 1}, {3, 2, 1}, {2, 1}, {4, 3}}); err == nil {
		t.Error("short weight column accepted")
	}
	if _, err := sp.RankedFrontier([][]float64{{1, 2, 3}, {1, 2, 3}, {2, 1}, {4, 3, 2, 1}}); err == nil {
		t.Error("increasing weights accepted")
	}
	if _, err := sp.RankedFrontier([][]float64{{3, 2, 1}, {4, 2, 1}, {2, 1}, {4, 3, 2, 1}}); err == nil {
		t.Error("same-class cores with different weights accepted")
	}
}

// TestMixedSpaceRandomRoundTrip fuzzes larger mixed spaces: random caps and
// classes, Unrank∘Rank identity at random ranks, Next consistency with
// Unrank.
func TestMixedSpaceRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		cores := 1 + rng.Intn(6)
		caps := make([]int, cores)
		class := make([]int, cores)
		classCap := []int{}
		for i := range caps {
			// Reuse an existing class (same cap) or open a new one.
			if len(classCap) > 0 && rng.Intn(2) == 0 {
				k := rng.Intn(len(classCap))
				class[i], caps[i] = k, classCap[k]
				// Classes must appear in first-occurrence order; remap below.
			} else {
				class[i] = len(classCap)
				caps[i] = 1 + rng.Intn(4)
				classCap = append(classCap, caps[i])
			}
		}
		// Remap class ids to first-occurrence order.
		remap := map[int]int{}
		for i, k := range class {
			if _, ok := remap[k]; !ok {
				remap[k] = len(remap)
			}
			class[i] = remap[k]
		}
		sp, err := NewSpace(caps, class)
		if err != nil {
			t.Fatalf("trial %d: NewSpace(%v, %v): %v", trial, caps, class, err)
		}
		total := sp.Count()
		// Walk the enumeration and check Rank at every position (spaces stay
		// small: caps ≤ 4, cores ≤ 6).
		if total > 5000 {
			continue
		}
		cur := sp.Start()
		for i := 0; ; i++ {
			r, err := sp.Rank(cur)
			if err != nil || r != i {
				t.Fatalf("trial %d (%v/%v): Rank(%v) = %d, %v; want %d", trial, caps, class, cur, r, err, i)
			}
			u, err := sp.Unrank(i)
			if err != nil || fmt.Sprint(u) != fmt.Sprint(cur) {
				t.Fatalf("trial %d: Unrank(%d) = %v, %v; want %v", trial, i, u, err, cur)
			}
			next, ok := sp.Next(cur)
			if !ok {
				if i != total-1 {
					t.Fatalf("trial %d: enumeration ended at %d of %d", trial, i+1, total)
				}
				break
			}
			cur = next
		}
	}
}

// TestSpaceCountOverflowRejected: a space whose combination count exceeds
// int must be rejected at construction — Unrank and the sampled frontier
// would otherwise silently draw from a wrapped range.
func TestSpaceCountOverflowRejected(t *testing.T) {
	// 13 independent classes of 4 cores × 4 levels: 35^13 ≈ 1.18e20 > MaxInt64.
	var caps, class []int
	for k := 0; k < 13; k++ {
		for c := 0; c < 4; c++ {
			caps = append(caps, 4)
			class = append(class, k)
		}
	}
	// Interleaved class order violates first-occurrence density? No: classes
	// appear grouped, ids ascending — valid. The count must overflow.
	if _, err := NewSpace(caps, class); err == nil {
		t.Fatal("astronomically large space accepted; Count would overflow int")
	} else if !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("overflow rejection has unhelpful text: %v", err)
	}
	// A platform with the same shape errors through PlatformSpace rather
	// than panicking or wrapping.
	types := make([]arch.ProcType, 13)
	var coreTypes []int
	for k := range types {
		// Distinct tables: scale frequencies so no two types collapse into
		// one symmetry class.
		base := 200.0 + float64(k)
		levels, err := arch.LevelsFromFrequencies(base, base/2, base/4, base/8)
		if err != nil {
			t.Fatal(err)
		}
		types[k] = arch.ProcType{Name: fmt.Sprintf("t%d", k), Levels: levels}
		for c := 0; c < 4; c++ {
			coreTypes = append(coreTypes, k)
		}
	}
	p, err := arch.NewHeterogeneousPlatform(types, coreTypes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlatformSpace(p); err == nil {
		t.Fatal("PlatformSpace accepted an overflowing space")
	}
}

// TestIterFromMatchesFullWalk: an iterator started at any rank must replay
// exactly the suffix of the full in-order walk, indices included — the
// contract contiguous sharding builds on.
func TestIterFromMatchesFullWalk(t *testing.T) {
	sp := mixedTestSpace(t)
	total := sp.Count()
	type entry struct {
		scaling []int
		idx     int
	}
	var full []entry
	it := sp.Iter()
	for {
		s, idx, ok := it.Next()
		if !ok {
			break
		}
		full = append(full, entry{append([]int(nil), s...), idx})
	}
	if len(full) != total {
		t.Fatalf("full walk yielded %d vectors, want %d", len(full), total)
	}
	for _, start := range []int{0, 1, total / 3, total / 2, total - 1} {
		from, err := sp.IterFrom(start)
		if err != nil {
			t.Fatalf("IterFrom(%d): %v", start, err)
		}
		for pos := start; ; pos++ {
			s, idx, ok := from.Next()
			if !ok {
				if pos != total {
					t.Fatalf("IterFrom(%d) ended at position %d, want %d", start, pos, total)
				}
				break
			}
			if idx != full[pos].idx {
				t.Fatalf("IterFrom(%d) position %d: idx = %d, want %d", start, pos, idx, full[pos].idx)
			}
			if fmt.Sprint(s) != fmt.Sprint(full[pos].scaling) {
				t.Fatalf("IterFrom(%d) position %d: scaling = %v, want %v", start, pos, s, full[pos].scaling)
			}
		}
	}
	if _, err := sp.IterFrom(total); err == nil {
		t.Fatal("IterFrom(Count()) accepted; want range error")
	}
	if _, err := sp.IterFrom(-1); err == nil {
		t.Fatal("IterFrom(-1) accepted; want range error")
	}
}
