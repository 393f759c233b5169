package vscale

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"

	"seadopt/internal/arch"
)

// Space is the mixed-radix generalization of the Fig. 5 combination space to
// heterogeneous platforms: core i draws its scaling coefficient from its own
// table of caps[i] levels, and cores that share a physical DVS table (the
// same symmetry class) are interchangeable for the task mapper, so — exactly
// like the paper's identical-core argument — only one representative of each
// within-class permutation is enumerated: the coefficients of same-class
// cores are constrained non-increasing in core order.
//
// The enumeration order is descending lexicographic over the valid vectors,
// starting from the all-slowest vector (every core at its own last level).
// For a homogeneous platform (one class, uniform caps) this is bit-identical
// to the Fig. 5 enumeration NextScaling walks — the package tests hold it to
// the Enumerator's All — so every stable combination index, mapper seed and
// cache key is preserved.
type Space struct {
	caps  []int // per-core level count
	class []int // per-core symmetry class id (dense, first-occurrence order)

	classPos [][]int // positions of each class's cores, ascending
	rem      [][]int // rem[i][k]: positions of class k at index ≥ i
	count    int     // total vectors; overflow rejected at construction
}

// NewSpace builds a combination space from per-core level counts and
// symmetry classes. Cores of the same class must have equal caps (they share
// a table). class may be nil, meaning no two cores are interchangeable
// (every core its own class) — correct, if pessimal, for any platform.
func NewSpace(caps, class []int) (*Space, error) {
	if len(caps) == 0 {
		return nil, fmt.Errorf("vscale: need at least 1 core")
	}
	if class == nil {
		class = make([]int, len(caps))
		for i := range class {
			class[i] = i
		}
	}
	if len(class) != len(caps) {
		return nil, fmt.Errorf("vscale: %d caps but %d classes", len(caps), len(class))
	}
	sp := &Space{
		caps:  append([]int(nil), caps...),
		class: append([]int(nil), class...),
	}
	next := 0
	for i, c := range sp.caps {
		if c < 1 {
			return nil, fmt.Errorf("vscale: core %d needs at least 1 level, got %d", i, c)
		}
		k := sp.class[i]
		if k < 0 || k > next {
			return nil, fmt.Errorf("vscale: class ids must be dense in first-occurrence order (core %d has class %d, next unseen is %d)", i, k, next)
		}
		if k == next {
			sp.classPos = append(sp.classPos, nil)
			next++
		}
		if peers := sp.classPos[k]; len(peers) > 0 && sp.caps[peers[0]] != c {
			return nil, fmt.Errorf("vscale: class %d mixes level counts %d and %d", k, sp.caps[peers[0]], c)
		}
		sp.classPos[k] = append(sp.classPos[k], i)
	}
	// Per-position per-class remaining counts, so rank/unrank suffix counts
	// never rescan the core list.
	sp.rem = make([][]int, len(sp.caps)+1)
	cur := make([]int, len(sp.classPos))
	for i := len(sp.caps); i >= 0; i-- {
		sp.rem[i] = append([]int(nil), cur...)
		if i > 0 {
			cur[sp.class[i-1]]++
		}
	}
	// Total size with overflow detection: a space whose count exceeds int is
	// unusable — Unrank/SampledFrontier would silently draw from a wrapped
	// range — so reject it here with an actionable error.
	total := 1
	for _, pos := range sp.classPos {
		m, ok := multisetChecked(len(pos), sp.caps[pos[0]])
		if ok {
			total, ok = mulChecked(total, m)
		}
		if !ok {
			return nil, fmt.Errorf("vscale: combination space of caps %v / classes %v overflows int; this platform is too large to enumerate or sample", caps, class)
		}
	}
	sp.count = total
	return sp, nil
}

// mulChecked returns a*b and ok=false on int overflow (a, b ≥ 1).
func mulChecked(a, b int) (int, bool) {
	p := a * b
	if a != 0 && p/a != b {
		return 0, false
	}
	return p, true
}

// multisetChecked is multiset with overflow detection.
func multisetChecked(n, k int) (int, bool) {
	if n < 0 || k < 1 {
		return boolToInt(n == 0), true
	}
	// C(n+k-1, min(n, k-1)) iteratively; the running product is divided
	// back down every step, so checking each multiplication suffices.
	nn := n + k - 1
	kk := n
	if k-1 < kk {
		kk = k - 1
	}
	res := 1
	for i := 1; i <= kk; i++ {
		m, ok := mulChecked(res, nn-kk+i)
		if !ok {
			return 0, false
		}
		res = m / i
	}
	return res, true
}

// PlatformSpace derives the combination space of a platform from its
// per-core level counts and symmetry classes. It errors only when the
// platform's combination count overflows int — a space nothing could
// enumerate or sample anyway.
func PlatformSpace(p *arch.Platform) (*Space, error) {
	return NewSpace(p.LevelCounts(), p.SymmetryClasses())
}

// Caps returns a copy of the per-core level counts.
func (sp *Space) Caps() []int { return append([]int(nil), sp.caps...) }

// Start returns the first vector of the enumeration: every core at its own
// slowest level.
func (sp *Space) Start() []int { return sp.Caps() }

// Valid reports whether s is a canonical vector of this space: per-core
// coefficients within [1, caps[i]], non-increasing along each symmetry
// class's core order.
func (sp *Space) Valid(s []int) bool {
	if len(s) != len(sp.caps) {
		return false
	}
	last := make([]int, len(sp.classPos))
	for i := range last {
		last[i] = -1
	}
	for i, v := range s {
		if v < 1 || v > sp.caps[i] {
			return false
		}
		k := sp.class[i]
		if p := last[k]; p >= 0 && v > s[p] {
			return false
		}
		last[k] = i
	}
	return true
}

// Next computes the successor of prev in the descending-lexicographic
// enumeration. ok is false at the end of the sequence (all-fastest vector)
// and for vectors that are not Valid. The result is a fresh slice.
//
// The transition rule generalizes Fig. 5(a): find the right-most core whose
// coefficient exceeds 1, decrement it, and reset every core to its right to
// the largest coefficient its table and its class's non-increasing
// constraint admit. On a uniform space this is exactly the NextScaling
// rule.
func (sp *Space) Next(prev []int) (next []int, ok bool) {
	if !sp.Valid(prev) {
		return nil, false
	}
	next = append([]int(nil), prev...)
	if !sp.advance(next, make([]int, len(sp.classPos))) {
		return nil, false
	}
	return next, true
}

// advance mutates cur to its successor in place, using last (one slot per
// class) as scratch; it reports false at the end of the enumeration, leaving
// cur untouched. cur must be a canonical vector. This is the allocation-free
// core of Next, Iter and Frontier.
//
// The transition rule generalizes Fig. 5(a): find the right-most core whose
// coefficient exceeds 1, decrement it, and reset every core to its right to
// the largest coefficient its table and its class's non-increasing
// constraint admit.
func (sp *Space) advance(cur []int, last []int) bool {
	j := -1
	for i := len(cur) - 1; i >= 0; i-- {
		if cur[i] > 1 {
			j = i
			break
		}
	}
	if j < 0 {
		return false
	}
	cur[j]--
	// Maximal valid completion of the suffix: each core takes its table cap,
	// clamped by the nearest preceding same-class core.
	for i := range last {
		last[i] = -1
	}
	for i := 0; i <= j; i++ {
		last[sp.class[i]] = i
	}
	for i := j + 1; i < len(cur); i++ {
		v := sp.caps[i]
		k := sp.class[i]
		if p := last[k]; p >= 0 && cur[p] < v {
			v = cur[p]
		}
		cur[i] = v
		last[k] = i
	}
	return true
}

// Iter streams the enumeration with a single reusable vector — the
// allocation-free form of Frontier for hot loops. The slice returned by
// Next is BORROWED: it is valid only until the following Next call; copy it
// to retain. Index is the stable enumeration index (equal to the stream
// position for this full in-order walk).
type Iter struct {
	sp        *Space
	cur, last []int
	idx       int
	started   bool
	done      bool
}

// Iter returns an iterator positioned before the first vector.
func (sp *Space) Iter() *Iter {
	return &Iter{sp: sp, cur: sp.Start(), last: make([]int, len(sp.classPos))}
}

// IterFrom returns an iterator positioned before the rank-th vector of the
// enumeration (0-based): the first Next call yields Unrank(rank) with index
// rank, and the stream then continues through the tail of the enumeration.
// This is the contiguous-shard entry point — a worker covering ranks
// [lo, hi) walks IterFrom(lo) and stops after hi-lo vectors, and the
// indices it sees are exactly the stable enumeration indices a full Iter
// walk would assign.
func (sp *Space) IterFrom(rank int) (*Iter, error) {
	cur, err := sp.Unrank(rank)
	if err != nil {
		return nil, err
	}
	return &Iter{sp: sp, cur: cur, last: make([]int, len(sp.classPos)), idx: rank}, nil
}

// Next advances and returns the borrowed current vector and its enumeration
// index; ok is false when the stream is exhausted.
func (it *Iter) Next() (scaling []int, idx int, ok bool) {
	if it.done {
		return nil, 0, false
	}
	if !it.started {
		it.started = true
		return it.cur, it.idx, true
	}
	if !it.sp.advance(it.cur, it.last) {
		it.done = true
		return nil, 0, false
	}
	it.idx++
	return it.cur, it.idx, true
}

// multiset returns the number of non-increasing sequences of length n over
// values [1, k]: the multiset coefficient C(n+k-1, n). multiset(0, k) = 1.
// Overflow is impossible for arguments drawn from a constructed Space (the
// constructor rejects spaces whose total count overflows, and every suffix
// factor divides the total).
func multiset(n, k int) int {
	m, _ := multisetChecked(n, k)
	return m
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Count returns the number of vectors in the enumeration: the product over
// symmetry classes of the multiset coefficient of (class size, class
// levels). Computed once at construction, where overflow is rejected.
func (sp *Space) Count() int { return sp.count }

// suffixCount returns the number of valid completions of positions i.. given
// the per-class caps h (h[k] = the value of class k's nearest core before i,
// or the class's table cap if none). The per-position remaining counts are
// precomputed, so a call is O(classes) with no allocation.
func (sp *Space) suffixCount(i int, h []int) int {
	total := 1
	for k, r := range sp.rem[i] {
		total *= multiset(r, h[k])
	}
	return total
}

// Unrank returns the rank-th vector of the enumeration (0-based) without
// walking the sequence. The enumeration is descending lexicographic, so
// each position is resolved by peeling off suffix-count blocks of the
// candidate values from the current class cap downward. This random access
// is what gives every combination a stable index whatever order a strategy
// visits it in.
func (sp *Space) Unrank(rank int) ([]int, error) {
	if total := sp.Count(); rank < 0 || rank >= total {
		return nil, fmt.Errorf("vscale: rank %d outside [0,%d)", rank, total)
	}
	out := make([]int, len(sp.caps))
	h := make([]int, len(sp.classPos))
	for k, pos := range sp.classPos {
		h[k] = sp.caps[pos[0]]
	}
	for i := range out {
		k := sp.class[i]
		hi := h[k]
		for v := hi; v >= 1; v-- {
			h[k] = v
			block := sp.suffixCount(i+1, h)
			if rank < block {
				out[i] = v
				break
			}
			rank -= block
		}
	}
	return out, nil
}

// Rank is the inverse of Unrank: the 0-based enumeration index of a
// canonical vector.
func (sp *Space) Rank(s []int) (int, error) {
	if !sp.Valid(s) {
		return 0, fmt.Errorf("vscale: %v is not a canonical vector of this space", s)
	}
	h := make([]int, len(sp.classPos))
	for k, pos := range sp.classPos {
		h[k] = sp.caps[pos[0]]
	}
	rank := 0
	for i, v := range s {
		k := sp.class[i]
		for u := h[k]; u > v; u-- {
			h[k] = u
			rank += sp.suffixCount(i+1, h)
		}
		h[k] = v
	}
	return rank, nil
}

// All returns the whole enumeration in order; for tests and small spaces.
func (sp *Space) All() [][]int {
	out := make([][]int, 0, sp.Count())
	cur := sp.Start()
	for {
		out = append(out, cur)
		next, ok := sp.Next(cur)
		if !ok {
			return out
		}
		cur = next
	}
}

// Frontier streams the whole enumeration in order, with Combo.Index equal to
// the stream position. Each Combo owns its Scaling; use Iter to stream
// without the per-combination copy.
func (sp *Space) Frontier() *Frontier {
	it := sp.Iter()
	return &Frontier{
		size: sp.Count(),
		next: func() (Combo, bool) {
			s, i, ok := it.Next()
			if !ok {
				return Combo{}, false
			}
			return Combo{Index: i, Scaling: append([]int(nil), s...)}, true
		},
	}
}

// SampledFrontier streams a seed-deterministic uniform sample of budget
// distinct combinations in ascending enumeration-index order, unranking each
// on demand. A budget of zero or beyond the space size yields the whole
// enumeration. The draw sequence is a pure function of (Count, budget,
// seed), and the package tests pin it, so seed-keyed sampled results stay
// stable.
func (sp *Space) SampledFrontier(budget int, seed int64) (*Frontier, error) {
	total := sp.Count()
	if budget <= 0 || budget >= total {
		return sp.Frontier(), nil
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5A3D1EF0))
	picked := make(map[int]struct{}, budget)
	idxs := make([]int, 0, budget)
	for len(idxs) < budget {
		r := rng.Intn(total)
		if _, dup := picked[r]; dup {
			continue
		}
		picked[r] = struct{}{}
		idxs = append(idxs, r)
	}
	sort.Ints(idxs)
	pos := 0
	return &Frontier{
		size: budget,
		next: func() (Combo, bool) {
			if pos >= len(idxs) {
				return Combo{}, false
			}
			s, err := sp.Unrank(idxs[pos])
			if err != nil {
				return Combo{}, false // unreachable: idxs ∈ [0,total)
			}
			c := Combo{Index: idxs[pos], Scaling: s}
			pos++
			return c, true
		},
	}, nil
}

// RankedFrontier streams the enumeration in ascending total weight, where a
// vector's weight is Σ_c weight[c][s_c-1] (pass per-core per-level dynamic
// power for cheapest-first order). Each core's weight column must be
// non-increasing in s (fastest level heaviest), and same-class cores must
// share a column so the within-class canonical form stays weight-neutral.
// Generation is lazy best-first search over the per-core speed-up lattice
// from the all-slowest vector; ties are emitted in ascending
// enumeration-index order.
//
// The total is reduced class-major — for each symmetry class in
// first-occurrence order, count·weight per level in ascending level order —
// the exact accumulation order of arch.Platform.DynamicPower and the
// metrics bound histogram. Scaling such a sum by a positive constant is
// monotone even after float rounding, so "ascending weight" here is
// bit-consistent with "ascending nominal power" everywhere else in the
// system, 64 cores or 4.
func (sp *Space) RankedFrontier(weight [][]float64) (*Frontier, error) {
	if len(weight) != len(sp.caps) {
		return nil, fmt.Errorf("vscale: %d weight columns for %d cores", len(weight), len(sp.caps))
	}
	for c, col := range weight {
		if len(col) != sp.caps[c] {
			return nil, fmt.Errorf("vscale: core %d has %d weights for %d levels", c, len(col), sp.caps[c])
		}
		for i := 1; i < len(col); i++ {
			if col[i-1] < col[i] {
				return nil, fmt.Errorf("vscale: core %d weights must be non-increasing in s (fastest level heaviest)", c)
			}
		}
	}
	for _, pos := range sp.classPos {
		ref := weight[pos[0]]
		for _, p := range pos[1:] {
			for i := range ref {
				if weight[p][i] != ref[i] {
					return nil, fmt.Errorf("vscale: cores %d and %d share a symmetry class but have different weights", pos[0], p)
				}
			}
		}
	}
	weightOf := func(s []int) float64 {
		var w float64
		for _, pos := range sp.classPos {
			col := weight[pos[0]]
			for lvl := 1; lvl <= sp.caps[pos[0]]; lvl++ {
				n := 0
				for _, c := range pos {
					if s[c] == lvl {
						n++
					}
				}
				if n > 0 {
					w += float64(n) * col[lvl-1]
				}
			}
		}
		return w
	}
	// nextInClass[i] is the nearest same-class core after i, or -1.
	nextInClass := make([]int, len(sp.caps))
	for i := range nextInClass {
		nextInClass[i] = -1
	}
	for _, pos := range sp.classPos {
		for j := 0; j+1 < len(pos); j++ {
			nextInClass[pos[j]] = pos[j+1]
		}
	}
	start := sp.Start()
	startRank, err := sp.Rank(start)
	if err != nil {
		return nil, err // unreachable: Start is canonical
	}
	h := &rankedHeap{{scaling: start, weight: weightOf(start), rank: startRank}}
	// Visited vectors are keyed by enumeration index — computed once per
	// generated node — so deduplication and tie ordering never re-rank or
	// build string keys.
	seen := map[int]struct{}{startRank: {}}
	return &Frontier{
		size: sp.Count(),
		next: func() (Combo, bool) {
			if h.Len() == 0 {
				return Combo{}, false
			}
			// Pop every node of the minimal weight and order the tie class
			// by enumeration index so the stream is fully deterministic.
			batch := []rankedNode{heap.Pop(h).(rankedNode)}
			for h.Len() > 0 && (*h)[0].weight <= batch[0].weight {
				batch = append(batch, heap.Pop(h).(rankedNode))
			}
			sort.Slice(batch, func(a, b int) bool { return batch[a].rank < batch[b].rank })
			cur := batch[0]
			for _, n := range batch[1:] {
				heap.Push(h, n)
			}
			// Successors: speed one core up a level, keeping the vector
			// canonical (the next same-class core must stay ≤), deduplicated
			// via the visited set.
			for i := 0; i < len(sp.caps); i++ {
				if cur.scaling[i] <= 1 {
					continue
				}
				if nx := nextInClass[i]; nx >= 0 && cur.scaling[i]-1 < cur.scaling[nx] {
					continue // would break the class's non-increasing form
				}
				succ := append([]int(nil), cur.scaling...)
				succ[i]--
				rank, err := sp.Rank(succ)
				if err != nil {
					return Combo{}, false // unreachable: successors stay canonical
				}
				if _, dup := seen[rank]; dup {
					continue
				}
				seen[rank] = struct{}{}
				// Recompute the weight from scratch so equal vectors reached
				// along different speed-up paths carry bit-identical weights
				// and the tie ordering by enumeration index stays exact.
				heap.Push(h, rankedNode{scaling: succ, weight: weightOf(succ), rank: rank})
			}
			return Combo{Index: cur.rank, Scaling: cur.scaling}, true
		},
	}, nil
}
