package mapping

import (
	"fmt"

	"seadopt/internal/arch"
	"seadopt/internal/metrics"
	"seadopt/internal/sched"
	"seadopt/internal/taskgraph"
)

// MaxExhaustiveEvaluations bounds ExhaustiveMapping's search effort; the
// symmetry-reduced space must fit under it or the call is rejected up
// front. 4^11/4! symmetry-reduced ≈ 2×10⁵ for the MPEG-2 decoder on four
// uniform cores, well inside the bound.
const MaxExhaustiveEvaluations = 2_000_000

// ExhaustiveMapping finds the Γ-optimal feasible mapping at one scaling
// vector by enumerating every task-to-core assignment, with two exactness-
// preserving reductions:
//
//   - cores at the same scaling level are interchangeable, so assignments
//     are only generated in canonical form (a task may open a fresh core of
//     a scaling class only if it is the lowest-indexed unopened core of
//     that class);
//   - assignments that leave fewer unassigned tasks than empty cores are
//     pruned (the every-core-used invariant of Fig. 6).
//
// It exists to measure the optimality gap of the heuristic mappers on small
// problems; cost grows exponentially with N, so the symmetry-reduced space
// is counted first and the call fails fast if it exceeds
// MaxExhaustiveEvaluations.
func ExhaustiveMapping(g *taskgraph.Graph, p *arch.Platform, scaling []int, cfg Config) (*metrics.Evaluation, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// One evaluator scores every leaf; only the winner is evaluated in full.
	e, err := metrics.NewEvaluator(g, p, cfg.SER,
		metrics.Options{Iterations: cfg.Iterations, DeadlineSec: cfg.DeadlineSec})
	if err != nil {
		return nil, err
	}
	if err := e.Bind(scaling); err != nil {
		return nil, err
	}
	n := g.N()
	cores := p.Cores()

	// Scaling classes for symmetry reduction.
	class := e.Scaling() // scaling value per core; read-only

	if est := estimateAssignments(n, cores, class); est > MaxExhaustiveEvaluations {
		return nil, fmt.Errorf("mapping: exhaustive space ≈%d exceeds limit %d (N=%d, C=%d)",
			est, MaxExhaustiveEvaluations, n, cores)
	}

	m := make(sched.Mapping, n)
	loads := make([]int, cores)
	var best sched.Mapping
	var bestGamma float64

	var dfs func(task int) error
	dfs = func(task int) error {
		if task == n {
			if n >= cores {
				for _, l := range loads {
					if l == 0 {
						return nil // every allocated core must host a task
					}
				}
			}
			sc, err := e.Score(m)
			if err != nil {
				return err
			}
			if sc.MeetsDeadline && (best == nil || sc.Gamma < bestGamma) {
				best, bestGamma = append(best[:0], m...), sc.Gamma
			}
			return nil
		}
		// Prune: remaining tasks must be able to populate the empty cores.
		empty := 0
		for _, l := range loads {
			if l == 0 {
				empty++
			}
		}
		if n-task < empty {
			return nil
		}
		seenFreshClass := make(map[int]bool)
		for c := 0; c < cores; c++ {
			if loads[c] == 0 {
				// Canonical form: open at most one fresh core per scaling
				// class, the lowest-indexed one.
				if seenFreshClass[class[c]] {
					continue
				}
				seenFreshClass[class[c]] = true
			}
			m[task] = c
			loads[c]++
			if err := dfs(task + 1); err != nil {
				return err
			}
			loads[c]--
		}
		return nil
	}
	if err := dfs(0); err != nil {
		return nil, err
	}
	if best == nil {
		return nil, fmt.Errorf("mapping: no feasible mapping exists at scaling %v", scaling)
	}
	ev, err := e.Evaluate(best)
	if err != nil {
		return nil, err
	}
	return ev.Clone(), nil
}

// estimateAssignments upper-bounds the symmetry-reduced assignment count:
// C^N divided by the product of factorials of the scaling-class sizes.
func estimateAssignments(n, cores int, class []int) int64 {
	classSize := map[int]int{}
	for _, c := range class {
		classSize[c]++
	}
	denom := 1.0
	for _, k := range classSize {
		for i := 2; i <= k; i++ {
			denom *= float64(i)
		}
	}
	total := 1.0
	for i := 0; i < n; i++ {
		total *= float64(cores)
		if total/denom > float64(MaxExhaustiveEvaluations)*10 {
			return MaxExhaustiveEvaluations * 10 // saturate early
		}
	}
	return int64(total / denom)
}
