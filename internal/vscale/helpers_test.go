package vscale

import (
	"fmt"
	"sort"

	"seadopt/internal/arch"
)

// Accessors and oracles that only this package's tests use.

// UniformSpace is the homogeneous space: `cores` identical cores sharing
// one levels-deep table — the paper's Fig. 5 space.
func UniformSpace(cores, levels int) (*Space, error) {
	if cores < 1 || levels < 1 {
		return nil, fmt.Errorf("vscale: need cores ≥ 1 and levels ≥ 1, got %d, %d", cores, levels)
	}
	caps := make([]int, cores)
	class := make([]int, cores)
	for i := range caps {
		caps[i] = levels
	}
	return NewSpace(caps, class)
}

// Canonical returns the in-space representative of an arbitrary per-core
// assignment: within each symmetry class the coefficients are sorted
// non-increasing (cores of a class are interchangeable); other cores keep
// their values.
func (sp *Space) Canonical(s []int) []int {
	out := append([]int(nil), s...)
	for _, pos := range sp.classPos {
		vals := make([]int, len(pos))
		for i, p := range pos {
			vals[i] = out[p]
		}
		sort.Sort(sort.Reverse(sort.IntSlice(vals)))
		for i, p := range pos {
			out[p] = vals[i]
		}
	}
	return out
}

// Reset restarts the enumeration from the all-slowest vector.
func (e *Enumerator) Reset() {
	for i := range e.cur {
		e.cur[i] = e.levels
	}
	e.started = false
	e.done = false
}

// Count returns the number of distinct non-increasing scaling vectors:
// the multiset coefficient C(cores+levels-1, cores). For 4 cores and
// 3 levels this is 15 (Fig. 5b).
func Count(cores, levels int) int {
	// Compute C(cores+levels-1, min(cores, levels-1)) iteratively.
	n := cores + levels - 1
	k := cores
	if levels-1 < k {
		k = levels - 1
	}
	res := 1
	for i := 1; i <= k; i++ {
		res = res * (n - k + i) / i
	}
	return res
}

// Canonical returns the sorted-non-increasing representative of a scaling
// vector (the Fig. 5 form of an arbitrary per-core assignment).
func Canonical(scaling []int) []int {
	out := append([]int(nil), scaling...)
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// AllByPower returns the scaling enumeration for the platform — Fig. 5 for
// homogeneous platforms, the mixed-radix Space for heterogeneous ones —
// sorted by ascending full-utilization dynamic power (the order in which
// step 1 of Fig. 4 offers combinations to the mapper: cheapest first).
func AllByPower(p *arch.Platform) ([][]int, error) {
	sp, err := PlatformSpace(p)
	if err != nil {
		return nil, err
	}
	combos := sp.All()
	power := make([]float64, len(combos))
	for i, s := range combos {
		pw, err := p.DynamicPower(s, nil)
		if err != nil {
			return nil, err
		}
		power[i] = pw
	}
	idx := make([]int, len(combos))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return power[idx[a]] < power[idx[b]] })
	out := make([][]int, len(combos))
	for i, j := range idx {
		out[i] = combos[j]
	}
	return out, nil
}
