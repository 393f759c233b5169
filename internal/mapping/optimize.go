package mapping

import (
	"context"

	"seadopt/internal/arch"
	"seadopt/internal/metrics"
	"seadopt/internal/sched"
	"seadopt/internal/search"
	"seadopt/internal/taskgraph"
)

// MapContext carries everything a mapper needs for one scaling combination
// of the design loop: the pinned workload, a reusable Evaluator already
// bound to Scaling, a cancellation context, and the combination-derived
// seed. The Explore engine builds one per combination; MapOnce builds a
// standalone one for single-scaling runs.
type MapContext struct {
	// Ctx cancels the mapper; implementations must return Ctx.Err()
	// promptly after cancellation.
	Ctx      context.Context
	Graph    *taskgraph.Graph
	Platform *arch.Platform
	// Scaling is the per-core scaling vector of this combination. Shared;
	// do not mutate.
	Scaling []int
	// Eval is bound to (Graph, Platform, Scaling). Evaluations it returns
	// are borrowed: mappers must Clone any evaluation they return or retain
	// across calls.
	Eval *metrics.Evaluator
	// Seed is derived deterministically from (Config.Seed, combination
	// index), so every mapper sees the same stream at the same combination
	// regardless of worker scheduling, and distinct combinations get
	// decorrelated streams.
	Seed int64

	// scratch holds the worker-owned feasibility-probe buffers. The Explore
	// engine reuses one MapContext (and its scratch) per worker across
	// every combination that worker maps — mappers must not retain the
	// context or any of its fields past their call. Nil outside the engine;
	// probeFeasible then allocates per call.
	scratch *comboScratch
}

// MapperFunc produces a mapping for one scaling combination. The soft
// error-aware mapper (SEAMapper) and the simulated-annealing baselines in
// internal/anneal both satisfy this shape, so the outer Fig. 4 loop can
// drive either. The returned Evaluation must be owned by the caller (not
// borrowed from mc.Eval).
type MapperFunc func(mc *MapContext) (sched.Mapping, *metrics.Evaluation, error)

// NewMapContext builds a standalone context for running a mapper at a
// single scaling vector outside the Explore engine, with cfg.Seed as the
// stream seed.
func NewMapContext(ctx context.Context, g *taskgraph.Graph, p *arch.Platform,
	scaling []int, cfg Config) (*MapContext, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	e, err := metrics.NewEvaluator(g, p, cfg.SER,
		metrics.Options{Iterations: cfg.Iterations, DeadlineSec: cfg.DeadlineSec})
	if err != nil {
		return nil, err
	}
	if err := e.Bind(scaling); err != nil {
		return nil, err
	}
	return &MapContext{
		Ctx:      ctx,
		Graph:    g,
		Platform: p,
		Scaling:  e.Scaling(),
		Eval:     e,
		Seed:     cfg.Seed,
	}, nil
}

// MapOnce runs mapper at a single scaling vector with a fresh evaluator —
// the entry point for fixed-scaling studies (Fig. 9, the ablations) and the
// public MapAtScaling facade.
func MapOnce(ctx context.Context, g *taskgraph.Graph, p *arch.Platform,
	scaling []int, mapper MapperFunc, cfg Config) (sched.Mapping, *metrics.Evaluation, error) {
	mc, err := NewMapContext(ctx, g, p, scaling, cfg)
	if err != nil {
		return nil, nil, err
	}
	return mapper(mc)
}

// SEAMapper returns the proposed two-stage soft error-aware mapper
// (InitialSEAMapping followed by OptimizedMapping) as a MapperFunc.
func SEAMapper(cfg Config) MapperFunc {
	return func(mc *MapContext) (sched.Mapping, *metrics.Evaluation, error) {
		init, err := initialSEAMapping(mc.Graph, mc.Platform, mc.Scaling, cfg, mc.Eval.Profile())
		if err != nil {
			return nil, nil, err
		}
		ev, err := optimizedMapping(mc, init, cfg)
		if err != nil {
			return nil, nil, err
		}
		return ev.Schedule.Mapping, ev, nil
	}
}

// OptimizedMapping implements the search stage of Fig. 7: starting from the
// initial mapping, it explores neighboring mappings (single-task moves and
// pairwise swaps — "maximum two task movements" per iteration), list
// schedules each candidate, and returns the evaluation of the best feasible
// mapping found: minimum SEUs experienced subject to T_M ≤ T_Mref.
//
// The search runs on the shared engine of internal/search — the same
// neighborhood and budget discipline as the Exp:1-3 baselines, so the four
// experiments differ only in objective (here: eq. (3)'s Γ, with a deadline
// penalty pulling infeasible walks back) and starting point (here: the
// Fig. 6 greedy mapping). The paper bounds the search by wall-clock time;
// a deterministic move budget (Config.SearchMoves) replaces it.
//
// This is the one-shot form; the engine path (optimizedMapping via
// SEAMapper) reuses the caller's MapContext and evaluator.
func OptimizedMapping(g *taskgraph.Graph, p *arch.Platform, scaling []int,
	initial sched.Mapping, cfg Config) (*metrics.Evaluation, error) {
	mc, err := NewMapContext(context.Background(), g, p, scaling, cfg)
	if err != nil {
		return nil, err
	}
	return optimizedMapping(mc, initial, cfg)
}

// optimizedMapping is the Fig. 7 search on a prepared MapContext. The
// returned evaluation is owned by the caller.
func optimizedMapping(mc *MapContext, initial sched.Mapping, cfg Config) (*metrics.Evaluation, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	// Phase 1 (≈2/3 of the budget): annealing walk on Γ, shared engine.
	annealMoves := cfg.SearchMoves * 2 / 3
	if annealMoves < 1 {
		annealMoves = 1
	}
	res, err := search.Anneal(search.Problem{
		Ctx:     mc.Ctx,
		Cores:   mc.Platform.Cores(),
		Initial: initial,
		// The second restart starts from a balanced scatter: the greedy
		// stage-1 seed excels under deadline pressure but can trap the
		// walk at deep uniform scalings where clustering is infeasible.
		AltInitials: []sched.Mapping{sched.RoundRobin(mc.Graph.N(), mc.Platform.Cores())},
		Moves:       annealMoves,
		Seed:        mc.Seed ^ 0x5EAD0,
		Evaluator:   mc.Eval,
		Objective: func(sc metrics.Score) float64 {
			v := sc.Gamma
			if cfg.DeadlineSec > 0 && !sc.MeetsDeadline {
				// Proportional penalty keeps the gradient toward
				// feasibility visible (Fig. 7 steps B-C).
				v *= 1 + 10*(sc.TMSeconds-cfg.DeadlineSec)/cfg.DeadlineSec
			}
			return v
		},
	})
	if err != nil {
		return nil, err
	}
	// Phase 2 (remaining budget): deterministic per-task descent. The Γ
	// landscape has a narrow valley along the T_M floor where random moves
	// look flat; systematically trying every (task, core) relocation finds
	// the register-locality improvements SA walks past.
	return polishGamma(mc, res.Best, cfg, cfg.SearchMoves-annealMoves)
}

// polishGamma runs first-improvement descent over single-task relocations
// (every-core-used invariant preserved), bounded by an evaluation budget.
// Candidates are scored, and only the returned design is evaluated in
// full. The returned evaluation is owned by the caller.
func polishGamma(mc *MapContext, m sched.Mapping, cfg Config, budget int) (*metrics.Evaluation, error) {
	e := mc.Eval
	best, err := e.Score(m)
	if err != nil {
		return nil, err
	}
	n := mc.Graph.N()
	cores := mc.Platform.Cores()
	bestM := m.Clone()
	bestGamma, bestTM, bestFeasible := best.Gamma, best.TMSeconds, best.MeetsDeadline
	finish := func() (*metrics.Evaluation, error) {
		ev, err := e.Evaluate(bestM)
		if err != nil {
			return nil, err
		}
		return ev.Clone(), nil
	}
	if cores < 2 || n < 2 {
		return finish()
	}
	cur := m.Clone()
	for budget > 0 {
		if err := mc.Ctx.Err(); err != nil {
			return nil, err
		}
		improved := false
		loads := cur.CoreLoads(cores)
	sweep:
		for t := 0; t < n; t++ {
			if n >= cores && loads[cur[t]] < 2 {
				continue // relocation would empty the core
			}
			if err := mc.Ctx.Err(); err != nil {
				return nil, err
			}
			home := cur[t]
			for c := 0; c < cores; c++ {
				if c == home {
					continue
				}
				cur[t] = c
				sc, err := e.Score(cur)
				if err != nil {
					return nil, err
				}
				budget--
				better := sc.MeetsDeadline && (!bestFeasible || sc.Gamma < bestGamma)
				if !better && !bestFeasible && sc.TMSeconds < bestTM {
					better = true // still hunting feasibility
				}
				if better {
					bestGamma, bestTM, bestFeasible = sc.Gamma, sc.TMSeconds, sc.MeetsDeadline
					copy(bestM, cur)
					loads[home]--
					loads[c]++
					improved = true
					if budget <= 0 {
						return finish()
					}
					continue sweep
				}
				cur[t] = home
				if budget <= 0 {
					return finish()
				}
			}
		}
		if !improved {
			return finish()
		}
	}
	return finish()
}
