// Package search provides the shared local-search engine used by both the
// proposed soft error-aware mapper (stage 2 of Fig. 7, searching on Γ) and
// the simulated-annealing baselines of Exp:1-3 (Orsila-style, searching on
// R, T_M or their product).
//
// Using one engine for all four experiments mirrors the paper's setup —
// every experiment gets the same search budget and neighborhood ("maximum
// two task movements" per step); they differ only in objective function and
// starting point. Feasibility (the real-time constraint) is tracked
// lexicographically: a feasible solution always beats an infeasible one,
// and the returned incumbent is the best feasible mapping seen, or the best
// overall if nothing feasible was encountered.
package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"seadopt/internal/metrics"
	"seadopt/internal/sched"
)

// Cost is an objective evaluation: the scalar to minimize plus the
// feasibility verdict of the underlying schedule.
type Cost struct {
	Value    float64
	Feasible bool
}

// dominates reports whether a beats b (feasibility first, then value).
func (a Cost) dominates(b Cost) bool {
	if a.Feasible != b.Feasible {
		return a.Feasible
	}
	return a.Value < b.Value
}

// Problem specifies one annealing run.
type Problem struct {
	// Ctx optionally cancels the search; it is checked once per move and the
	// walk returns Ctx.Err() promptly after cancellation. Nil means
	// context.Background().
	Ctx     context.Context
	Cores   int
	Initial sched.Mapping
	// AltInitials optionally supplies extra starting points; restart r
	// starts from the r-th entry of {Initial, AltInitials...} (wrapping).
	AltInitials []sched.Mapping
	// Evaluator and Objective form the engine path shared by the proposed
	// mapper and the Exp:1-3 baselines: each candidate is scored on the
	// reusable Evaluator (T_M, R, Γ and the deadline verdict, no per-move
	// allocation), Objective maps the score to the value to minimize, and
	// the verdict sets Cost.Feasible.
	Evaluator *metrics.Evaluator
	Objective func(sc metrics.Score) float64
	// Evaluate scores a candidate mapping directly; it is used when
	// Evaluator is nil (custom or toy objectives). It is called once per
	// move plus once for the initial mapping.
	Evaluate func(m sched.Mapping) (Cost, error)
	// Moves is the total step budget (required, > 0), split evenly across
	// DefaultRestarts independent runs.
	Moves int
	Seed  int64
	// InitialTempFrac and FinalTempFrac set the geometric cooling schedule
	// as multiples of the sampled mean neighbor delta |ΔCost| (so the
	// schedule adapts to the objective's scale — objectives with large
	// constant offsets anneal identically to their offset-free
	// equivalents). Zero values select 3 and 0.01.
	InitialTempFrac float64
	FinalTempFrac   float64
}

// DefaultRestarts is the number of independent annealing runs (from
// Initial and AltInitials, with derived seeds) sharing a Problem's move
// budget; the overall best wins.
const DefaultRestarts = 2

// Result carries the incumbent of an annealing run.
type Result struct {
	Best     sched.Mapping
	BestCost Cost
	Accepted int // moves accepted into the walking state
	Improved int // times the incumbent improved
}

// Anneal runs simulated annealing over task mappings with the shared
// move/swap neighborhood (every-core-used invariant preserved). The total
// move budget is split across DefaultRestarts independent runs and the
// best incumbent across runs is returned.
func Anneal(p Problem) (*Result, error) {
	if p.Moves <= 0 {
		return nil, fmt.Errorf("search: non-positive move budget %d", p.Moves)
	}
	if p.Cores < 1 {
		return nil, fmt.Errorf("search: non-positive core count %d", p.Cores)
	}
	if p.Evaluate == nil {
		if p.Evaluator == nil || p.Objective == nil {
			return nil, fmt.Errorf("search: nil objective")
		}
		ev, obj := p.Evaluator, p.Objective
		p.Evaluate = func(m sched.Mapping) (Cost, error) {
			sc, err := ev.Score(m)
			if err != nil {
				return Cost{}, err
			}
			return Cost{Value: obj(sc), Feasible: sc.MeetsDeadline}, nil
		}
	}
	if len(p.Initial) == 0 {
		return nil, fmt.Errorf("search: empty initial mapping")
	}
	if p.Ctx == nil {
		p.Ctx = context.Background()
	}
	restarts := DefaultRestarts
	if restarts > p.Moves {
		restarts = 1
	}
	starts := append([]sched.Mapping{p.Initial}, p.AltInitials...)
	sub := p
	sub.Moves = p.Moves / restarts
	var best *Result
	for r := 0; r < restarts; r++ {
		if err := p.Ctx.Err(); err != nil {
			return nil, err
		}
		sub.Seed = p.Seed + int64(r)*0x9E3779B9
		sub.Initial = starts[r%len(starts)]
		res, err := annealOnce(sub)
		if err != nil {
			return nil, err
		}
		if best == nil || res.BestCost.dominates(best.BestCost) {
			res.Accepted += bestAccepted(best)
			res.Improved += bestImproved(best)
			best = res
		} else {
			best.Accepted += res.Accepted
			best.Improved += res.Improved
		}
	}
	return best, nil
}

func bestAccepted(r *Result) int {
	if r == nil {
		return 0
	}
	return r.Accepted
}

func bestImproved(r *Result) int {
	if r == nil {
		return 0
	}
	return r.Improved
}

// annealOnce is a single cooling run.
func annealOnce(p Problem) (*Result, error) {
	t0f, tef := p.InitialTempFrac, p.FinalTempFrac
	if t0f <= 0 {
		t0f = 3
	}
	if tef <= 0 {
		tef = 0.01
	}

	rng := rand.New(rand.NewSource(p.Seed ^ 0x5EA2C4))
	cur := p.Initial.Clone()
	curCost, err := p.Evaluate(cur)
	if err != nil {
		return nil, err
	}
	res := &Result{Best: cur.Clone(), BestCost: curCost}

	if p.Cores < 2 || len(p.Initial) < 2 {
		return res, nil
	}

	// Walk scratch: the candidate buffer and load counts are reused across
	// every move; accepting a move swaps the buffers instead of cloning.
	scratch := make(sched.Mapping, len(cur))
	loads := make([]int, p.Cores)

	// Calibrate the temperature scale from sampled neighbor deltas so the
	// schedule is invariant to affine shifts of the objective; the samples
	// consume search budget so every objective gets the same total
	// evaluation count.
	moves := p.Moves
	nSample := 16
	if nSample > moves/4 {
		nSample = moves / 4
	}
	var meanDelta float64
	if nSample > 0 {
		var sum float64
		for i := 0; i < nSample; i++ {
			if err := p.Ctx.Err(); err != nil {
				return nil, err
			}
			nb := NeighborInto(rng, scratch, cur, p.Cores, loads)
			c, err := p.Evaluate(nb)
			if err != nil {
				return nil, err
			}
			sum += math.Abs(c.Value - curCost.Value)
			if c.dominates(res.BestCost) {
				res.Best = nb.Clone()
				res.BestCost = c
				res.Improved++
			}
		}
		moves -= nSample
		meanDelta = sum / float64(nSample)
	}
	if meanDelta <= 0 {
		meanDelta = math.Abs(curCost.Value)/10 + 1e-12
	}

	t0 := t0f * meanDelta
	tEnd := tef * meanDelta
	if tEnd <= 0 || tEnd >= t0 {
		tEnd = t0 * 1e-4
	}
	alpha := math.Pow(tEnd/t0, 1/float64(moves))

	temp := t0
	for move := 0; move < moves; move++ {
		if err := p.Ctx.Err(); err != nil {
			return nil, err
		}
		neighbor := NeighborInto(rng, scratch, cur, p.Cores, loads)
		c, err := p.Evaluate(neighbor)
		if err != nil {
			return nil, err
		}
		accept := false
		switch {
		case c.Feasible && !curCost.Feasible:
			accept = true
		case c.Feasible == curCost.Feasible:
			delta := c.Value - curCost.Value
			accept = delta <= 0 || rng.Float64() < math.Exp(-delta/temp)
		}
		if accept {
			cur, scratch = neighbor, cur
			curCost = c
			res.Accepted++
		}
		if c.dominates(res.BestCost) {
			res.Best = neighbor.Clone()
			res.BestCost = c
			res.Improved++
		}
		temp *= alpha
	}
	return res, nil
}

// NeighborInto draws a random neighboring mapping of m into dst (which
// must have len(m)) and returns dst: either one task moved to a different
// core or two tasks' cores swapped ("maximum two task movements", Fig. 7
// step C). Moves that would empty a core are rejected, preserving the
// architecture-allocation premise that every allocated core hosts at least
// one task (Fig. 6 line 4); swaps preserve it trivially. loads (at least
// cores entries) is per-core load scratch, so the draw allocates nothing.
func NeighborInto(rng *rand.Rand, dst, m sched.Mapping, cores int, loads []int) sched.Mapping {
	n := len(m)
	copy(dst, m)
	if n < 2 || cores < 2 {
		return dst
	}
	loads = loads[:cores]
	for i := range loads {
		loads[i] = 0
	}
	for _, c := range dst {
		loads[c]++
	}
	mustKeepAll := n >= cores
	for attempt := 0; attempt < 8; attempt++ {
		if rng.Intn(2) == 0 {
			t := rng.Intn(n)
			if mustKeepAll && loads[dst[t]] < 2 {
				continue // moving t would empty its core
			}
			c := rng.Intn(cores - 1)
			if c >= dst[t] {
				c++
			}
			dst[t] = c
			return dst
		}
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b && dst[a] != dst[b] {
			dst[a], dst[b] = dst[b], dst[a]
			return dst
		}
	}
	return dst
}
