package metrics

import (
	"fmt"
	"sort"

	"seadopt/internal/arch"
	"seadopt/internal/taskgraph"
)

// Bounds computes admissible per-scaling lower bounds for the exploration
// engine's branch-and-bound pruning — what the best conceivable mapping
// could achieve at a scaling vector, without running the mapper.
//
// The graph-dependent quantities (critical-path cycles, total work, the
// descending task-size prefix sums of the partition bound) are precomputed
// once in O(V + E + n log n). Per-scaling queries reduce a level histogram —
// one integer count per (symmetry class, level) — in a fixed catalogue
// order, so every bound value is a pure function of the multiset of level
// assignments: bit-identical whatever visit order produced the vector, and
// delta-maintainable in O(changed coefficients) through a Cursor.
//
// Three relaxations make the makespan bound admissible:
//
//   - infinite-core relaxation: every task runs at the fastest frequency of
//     the scaling vector with zero communication (colocating an entire
//     path on one fastest core eliminates its cross-core edges), so the
//     critical path in cycles over that frequency lower-bounds any
//     schedule's makespan;
//   - work conservation: total task cycles cannot drain faster than the
//     aggregate frequency Σ_c f_c;
//   - work partitioning (the load-balance bound): for every j, the j
//     largest tasks occupy at most min(j, cores) cores, which supply at
//     most T · F_j cycles by time T, where F_j is the sum of the j highest
//     core frequencies — so T ≥ max_j S_j / F_j with S_j the descending
//     task-cycle prefix sums. j = 1 recovers the classic largest-task
//     bound; the bound strictly dominates it.
//
// On a platform with an explicit interconnect (arch.Interconnect) a fourth,
// comm-aware term tightens the makespan bound further: a mapping either
// keeps every task on one core — taking at least totalCycles/fastest — or
// spans two and, the graph being weakly connected, forces at least one
// cross-core transfer costing at least one hop latency plus the smallest
// edge's serialization time (contention and extra hops only add). The
// makespan is therefore at least min(total/fastest, max(base, minTransfer)).
// The term is zero — bit-identical bounds to today — when the platform has
// no interconnect, the graph is disconnected, or some edge carries zero
// cycles (a free crossing point). Like every other term it is a pure
// function of the level histogram, so Cursor identity is preserved.
//
// For pipelined workloads (Iterations > 1) the same relaxations bound the
// bottleneck-core busy time (busy_c · f_c is at least the task cycles
// hosted by c, so B · F_j ≥ S_j for the hosts of the j largest tasks), and
// the pipelined makespan identity T_M = (1-1/F)·bottleneck + makespan/F
// combines them.
type Bounds struct {
	p          *arch.Platform
	iterations int

	cpCycles    int64 // longest path of task cycles (no communication)
	totalCycles int64 // Σ task cycles
	maxCycles   int64 // largest single task

	// prefixCycles[j] = sum of the j largest task cycle counts, for
	// j ≤ min(tasks, cores) — the partition bound never needs more terms:
	// beyond n tasks S_j is constant while F_j grows, and beyond C cores
	// no schedule can add capacity.
	prefixCycles []float64

	// Level catalogue: one entry per (symmetry class, level) in fixed
	// class-major order — the single reduction order every per-scaling
	// aggregate (nominal power, Σ f, fastest frequency, partition walk)
	// is summed in.
	class   []int   // per-core symmetry class id
	entryAt [][]int // entryAt[k][s-1] = catalogue index of (class k, level s)
	entries []boundEntry
	byFreq  []int // catalogue indices, frequency descending, index ascending
	cl      float64

	// commXferSec is the comm-aware term's transfer floor: the smallest
	// latency any cross-core transfer can incur on the platform's
	// interconnect (one hop, minimum-size edge, no contention). Zero when
	// the term does not apply; see the type comment.
	commXferSec float64
}

// boundEntry is one (symmetry class, level) operating point of the
// catalogue.
type boundEntry struct {
	hz   float64
	term float64 // f·V² — nominal power is cl · Σ count·term
}

// NewBounds precomputes the bound context for g on p. iterations follows
// Options.Iterations semantics (< 1 means 1).
func NewBounds(g *taskgraph.Graph, p *arch.Platform, iterations int) *Bounds {
	if iterations < 1 {
		iterations = 1
	}
	b := &Bounds{p: p, iterations: iterations, class: p.SymmetryClasses(), cl: p.CL()}
	n := g.N()
	// Longest task-cycle path in (reverse) topological order, O(V+E).
	down := make([]int64, n)
	cycles := make([]int64, n)
	topo := g.TopoOrder()
	for i := n - 1; i >= 0; i-- {
		t := topo[i]
		c := g.Task(t).Cycles
		cycles[t] = c
		if c > b.maxCycles {
			b.maxCycles = c
		}
		b.totalCycles += c
		var tail int64
		for _, e := range g.Succs(t) {
			if down[e.To] > tail {
				tail = down[e.To]
			}
		}
		down[t] = c + tail
		if down[t] > b.cpCycles {
			b.cpCycles = down[t]
		}
	}
	// Descending task-size prefix sums for the partition bound.
	sort.Slice(cycles, func(a, c int) bool { return cycles[a] > cycles[c] })
	terms := n
	if cores := p.Cores(); cores < terms {
		terms = cores
	}
	b.prefixCycles = make([]float64, terms+1)
	var sum int64
	for j := 1; j <= terms; j++ {
		sum += cycles[j-1]
		b.prefixCycles[j] = float64(sum)
	}
	// Level catalogue: one row per (class, level), class-major.
	b.entryAt = make([][]int, 0)
	seen := make(map[int]bool)
	for c, k := range b.class {
		if seen[k] {
			continue
		}
		seen[k] = true
		for len(b.entryAt) <= k {
			b.entryAt = append(b.entryAt, nil)
		}
		levels := p.CoreNumLevels(c)
		row := make([]int, levels)
		for s := 1; s <= levels; s++ {
			l := p.MustCoreLevel(c, s)
			row[s-1] = len(b.entries)
			b.entries = append(b.entries, boundEntry{hz: l.FreqHz(), term: l.FreqHz() * l.Vdd * l.Vdd})
		}
		b.entryAt[k] = row
	}
	b.byFreq = make([]int, len(b.entries))
	for i := range b.byFreq {
		b.byFreq[i] = i
	}
	sort.SliceStable(b.byFreq, func(a, c int) bool {
		return b.entries[b.byFreq[a]].hz > b.entries[b.byFreq[c]].hz
	})
	// Comm-aware term precomputation: weak connectivity (union-find over
	// the undirected edge set) and the smallest edge cycle count. Both are
	// needed for the term to be admissible — a disconnected graph can span
	// cores without crossing an edge, and a zero-cycle edge crosses for
	// free.
	if ic := p.Interconnect(); ic != nil && p.Cores() > 1 && n > 1 {
		parent := make([]int, n)
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		minEdge := int64(-1)
		for _, e := range g.Edges() {
			if minEdge < 0 || e.Cycles < minEdge {
				minEdge = e.Cycles
			}
			if ra, rb := find(int(e.From)), find(int(e.To)); ra != rb {
				parent[ra] = rb
			}
		}
		connected := true
		for v := 1; v < n; v++ {
			if find(v) != find(0) {
				connected = false
				break
			}
		}
		if connected && minEdge > 0 {
			b.commXferSec = ic.MinTransferSeconds(minEdge)
		}
	}
	return b
}

// histogram counts the (class, level) assignments of a validated scaling
// vector into a fresh catalogue-indexed array.
func (b *Bounds) histogram(scaling []int) ([]int, error) {
	if err := b.p.ValidScaling(scaling); err != nil {
		return nil, err
	}
	cnt := make([]int, len(b.entries))
	for c, s := range scaling {
		cnt[b.entryAt[b.class[c]][s-1]]++
	}
	return cnt, nil
}

// nominalFromHist reduces a level histogram to the vector's nominal power in
// fixed catalogue order.
func (b *Bounds) nominalFromHist(cnt []int) float64 {
	var sum float64
	for i, e := range b.entries {
		if cnt[i] != 0 {
			sum += float64(cnt[i]) * e.term
		}
	}
	return b.cl * sum
}

// tmLowerBoundFromHist reduces a level histogram to the admissible T_M lower
// bound, again in fixed catalogue order.
func (b *Bounds) tmLowerBoundFromHist(cnt []int) float64 {
	var sumHz float64
	for i, e := range b.entries {
		if cnt[i] != 0 {
			sumHz += float64(cnt[i]) * e.hz
		}
	}
	// Partition walk over the present levels, fastest first: F accumulates
	// core frequencies one core at a time, so F after j steps is the j
	// highest frequencies of the vector.
	fastest := 0.0
	partition := 0.0
	terms := len(b.prefixCycles) - 1
	j := 0
	var f float64
	for _, ei := range b.byFreq {
		c := cnt[ei]
		if c == 0 {
			continue
		}
		hz := b.entries[ei].hz
		if fastest == 0 {
			fastest = hz
		}
		for ; c > 0 && j < terms; c-- {
			j++
			f += hz
			if r := b.prefixCycles[j] / f; r > partition {
				partition = r
			}
		}
		if j >= terms {
			break
		}
	}
	work := float64(b.totalCycles) / sumHz
	makespanLB := float64(b.cpCycles) / fastest
	if work > makespanLB {
		makespanLB = work
	}
	if partition > makespanLB {
		makespanLB = partition
	}
	if b.commXferSec > 0 {
		// Comm-aware dichotomy: a single-core mapping serializes all work
		// on the fastest core present; a multi-core mapping still obeys the
		// base bound AND pays at least one minimal transfer. Every base
		// term is ≤ total/fastest, so taking the min against the
		// single-core side can only tighten, never loosen.
		single := float64(b.totalCycles) / fastest
		multi := makespanLB
		if b.commXferSec > multi {
			multi = b.commXferSec
		}
		if single < multi {
			multi = single
		}
		if multi > makespanLB {
			makespanLB = multi
		}
	}
	if b.iterations <= 1 {
		return makespanLB
	}
	bottleneckLB := float64(b.maxCycles) / fastest
	if work > bottleneckLB {
		bottleneckLB = work
	}
	if partition > bottleneckLB {
		bottleneckLB = partition
	}
	f64 := float64(b.iterations)
	return (1-1/f64)*bottleneckLB + makespanLB/f64
}

// TMLowerBound returns an admissible lower bound on the T_M of every
// mapping at the given scaling vector: no schedule — and therefore no
// feasibility probe or mapper search — can beat it. A scaling whose bound
// exceeds the deadline is provably infeasible.
func (b *Bounds) TMLowerBound(scaling []int) (float64, error) {
	cnt, err := b.histogram(scaling)
	if err != nil {
		return 0, err
	}
	return b.tmLowerBoundFromHist(cnt), nil
}

// Cursor maintains the level histogram of a current scaling vector so the
// bound queries of a combination stream cost O(changed coefficients) float
// work per step instead of O(cores): Advance diffs the next vector against
// the current one and moves only the changed counts; NominalPower and
// TMLowerBound then reduce the histogram in the catalogue's fixed order.
// Because every value is a pure function of the histogram — not of the
// update path — a Cursor's answers are bit-identical to a fresh reduction
// of the same vector (Bounds.TMLowerBound for the bound), whatever
// enumeration order (lexicographic, ranked, sampled) drives it.
//
// A Cursor is not safe for concurrent use; an exploration's claim stream
// owns one and advances it under its lock.
type Cursor struct {
	b       *Bounds
	scaling []int
	cnt     []int
	primed  bool
}

// Cursor returns an unprimed cursor over b; the first Advance (or Reset)
// establishes the initial vector.
func (b *Bounds) Cursor() *Cursor {
	return &Cursor{
		b:       b,
		scaling: make([]int, len(b.class)),
		cnt:     make([]int, len(b.entries)),
	}
}

// Reset establishes scaling as the cursor's current vector, recounting the
// histogram from scratch in O(cores).
func (cu *Cursor) Reset(scaling []int) error {
	if err := cu.b.p.ValidScaling(scaling); err != nil {
		return err
	}
	for i := range cu.cnt {
		cu.cnt[i] = 0
	}
	copy(cu.scaling, scaling)
	for c, s := range cu.scaling {
		cu.cnt[cu.b.entryAt[cu.b.class[c]][s-1]]++
	}
	cu.primed = true
	return nil
}

// Advance moves the cursor to next, updating the histogram only for the
// cores whose coefficient differs from the current vector, and reports how
// many changed. An unprimed cursor treats Advance as Reset. On error the
// cursor is unchanged.
func (cu *Cursor) Advance(next []int) (changed int, err error) {
	if !cu.primed {
		return len(next), cu.Reset(next)
	}
	if len(next) != len(cu.scaling) {
		return 0, fmt.Errorf("metrics: cursor advance with %d entries, platform has %d cores", len(next), len(cu.scaling))
	}
	// Validate the changed coordinates before touching any count, so a bad
	// vector cannot leave a half-applied histogram behind.
	for c, s := range next {
		if s == cu.scaling[c] {
			continue
		}
		if s < 1 || s > len(cu.b.entryAt[cu.b.class[c]]) {
			return 0, fmt.Errorf("metrics: cursor advance: core %d coefficient %d outside [1,%d]", c, s, len(cu.b.entryAt[cu.b.class[c]]))
		}
	}
	for c, s := range next {
		old := cu.scaling[c]
		if s == old {
			continue
		}
		row := cu.b.entryAt[cu.b.class[c]]
		cu.cnt[row[old-1]]--
		cu.cnt[row[s-1]]++
		cu.scaling[c] = s
		changed++
	}
	return changed, nil
}

// NominalPower returns the current vector's full-utilization dynamic power
// (eq. 5 with α ≡ 1), the quantity the step-3 acceptance rule ranks
// feasible scalings by. It is reduced from the level histogram, so
// physically equal vectors (any permutation within a symmetry class) get
// bit-identical power.
func (cu *Cursor) NominalPower() float64 { return cu.b.nominalFromHist(cu.cnt) }

// TMLowerBound returns the current vector's admissible T_M lower bound; see
// Bounds.TMLowerBound.
func (cu *Cursor) TMLowerBound() float64 { return cu.b.tmLowerBoundFromHist(cu.cnt) }
