// Package vscale enumerates per-core voltage-scaling combinations for the
// power-minimization step of the design loop (step 1 of Fig. 4).
//
// Because the MPSoC cores are identical, two scaling vectors that are
// permutations of each other describe the same design space point (the task
// mapper is free to permute cores). The paper's nextScaling algorithm
// (Fig. 5a) therefore enumerates only the non-increasing vectors
// s1 ≥ s2 ≥ ... ≥ sC, starting from the all-slowest vector: for 4 cores and
// 3 levels that is the 15-row table of Fig. 5(b) instead of 3⁴ = 81 raw
// combinations.
//
// The transition rule (as reconstructed from Fig. 5(b); the paper's
// pseudocode as typeset produces a different, repetitive sequence — see the
// package tests): find the right-most core whose coefficient exceeds 1,
// decrement it, and reset every core to its right to the decremented value.
package vscale

import (
	"fmt"
)

// Valid reports whether s is a well-formed Fig. 5 scaling vector: non-empty,
// non-increasing, with every entry ≥ 1.
func Valid(s []int) bool {
	if len(s) == 0 {
		return false
	}
	for i, v := range s {
		if v < 1 {
			return false
		}
		if i > 0 && v > s[i-1] {
			return false
		}
	}
	return true
}

// NextScaling computes the successor of prev in the Fig. 5 enumeration
// order. It returns ok=false when prev is the final all-nominal vector
// (s=1 everywhere) — or when prev is malformed (empty, non-monotone, or
// with entries < 1), which the transition rule would otherwise walk into
// garbage. prev must be non-increasing with entries ≥ 1; the result is a
// fresh slice.
func NextScaling(prev []int) (next []int, ok bool) {
	if !Valid(prev) {
		return nil, false
	}
	next = append([]int(nil), prev...)
	j := -1
	for i := len(next) - 1; i >= 0; i-- {
		if next[i] > 1 {
			j = i
			break
		}
	}
	if j < 0 {
		return nil, false
	}
	next[j]--
	for k := j + 1; k < len(next); k++ {
		next[k] = next[j]
	}
	return next, true
}

// Enumerator walks the Fig. 5 sequence from the all-slowest vector to the
// all-nominal vector.
type Enumerator struct {
	cores, levels int
	cur           []int
	started       bool
	done          bool
}

// NewEnumerator returns an enumerator over scaling vectors for the given
// core count and number of DVS levels.
func NewEnumerator(cores, levels int) (*Enumerator, error) {
	if cores < 1 {
		return nil, fmt.Errorf("vscale: need at least 1 core, got %d", cores)
	}
	if levels < 1 {
		return nil, fmt.Errorf("vscale: need at least 1 level, got %d", levels)
	}
	start := make([]int, cores)
	for i := range start {
		start[i] = levels
	}
	return &Enumerator{cores: cores, levels: levels, cur: start}, nil
}

// Next returns the next scaling vector in sequence, or ok=false when the
// enumeration is exhausted. The returned slice is owned by the caller.
func (e *Enumerator) Next() (scaling []int, ok bool) {
	if e.done {
		return nil, false
	}
	if !e.started {
		e.started = true
		return append([]int(nil), e.cur...), true
	}
	next, ok := NextScaling(e.cur)
	if !ok {
		e.done = true
		return nil, false
	}
	e.cur = next
	return append([]int(nil), next...), true
}

// All returns every vector of the Fig. 5 enumeration in sequence order.
func All(cores, levels int) ([][]int, error) {
	e, err := NewEnumerator(cores, levels)
	if err != nil {
		return nil, err
	}
	var out [][]int
	for {
		s, ok := e.Next()
		if !ok {
			return out, nil
		}
		out = append(out, s)
	}
}

// Exhaustive returns all levels^cores raw combinations (each entry in
// [1, levels]), used by tests to verify that the Fig. 5 enumeration covers
// every combination up to permutation.
func Exhaustive(cores, levels int) [][]int {
	total := 1
	for i := 0; i < cores; i++ {
		total *= levels
	}
	out := make([][]int, 0, total)
	cur := make([]int, cores)
	for i := range cur {
		cur[i] = 1
	}
	for {
		out = append(out, append([]int(nil), cur...))
		i := cores - 1
		for i >= 0 {
			cur[i]++
			if cur[i] <= levels {
				break
			}
			cur[i] = 1
			i--
		}
		if i < 0 {
			return out
		}
	}
}

// Combo is one design-space point of a Frontier stream: the per-core
// scaling vector and its stable Fig. 5 enumeration index. The index is the
// combination's identity across iteration orders — deterministic per-index
// mapper seeds and the enumeration-order reduction both key on it.
type Combo struct {
	// Index is the 0-based position in the Fig. 5 enumeration, independent
	// of the order this frontier visits combinations in.
	Index int
	// Scaling is the non-increasing per-core vector. Owned by the receiver.
	Scaling []int
}

// Frontier streams scaling combinations one at a time — the lazily-streamed
// replacement for materializing the full [][]int enumeration. Memory is
// O(cores) for the enumeration order and O(budget) for the sampled order;
// the ranked order holds a generation heap (worst case O(visited)).
type Frontier struct {
	next func() (Combo, bool)
	size int
}

// Next returns the next combination, or ok=false when the stream is done.
func (f *Frontier) Next() (Combo, bool) { return f.next() }

// Size returns the number of combinations the frontier will yield.
func (f *Frontier) Size() int { return f.size }

// rankedNode is one frontier entry of the ranked generation heap. rank is
// the vector's stable enumeration index, computed once at generation; it
// deduplicates lattice paths and orders weight ties without re-ranking or
// string keys.
type rankedNode struct {
	scaling []int
	weight  float64
	rank    int
}

type rankedHeap []rankedNode

func (h rankedHeap) Len() int { return len(h) }
func (h rankedHeap) Less(i, j int) bool {
	if h[i].weight != h[j].weight {
		return h[i].weight < h[j].weight
	}
	return h[i].rank < h[j].rank
}
func (h rankedHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *rankedHeap) Push(x any)   { *h = append(*h, x.(rankedNode)) }
func (h *rankedHeap) Pop() any     { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }
