// Package anneal implements the soft error-unaware task-mapping baselines of
// the paper's evaluation (Table II, Exp:1-3): simulated-annealing mapping in
// the style of Orsila et al. [13] with pluggable objectives —
//
//	Exp:1  minimize register usage R (memory-aware distribution)
//	Exp:2  minimize multiprocessor execution time T_M (parallelism)
//	Exp:3  minimize the product T_M × R (joint trade-off)
//
// plus ObjectiveGamma, the oracle that anneals directly on eq. (3)'s Γ, used
// by ablation benchmarks to separate "better search" from "better
// objective". Deadline feasibility enters the cost as a multiplicative
// penalty so the annealer is pulled back into the feasible region.
package anneal

import (
	"context"
	"fmt"

	"seadopt/internal/arch"
	"seadopt/internal/faults"
	"seadopt/internal/mapping"
	"seadopt/internal/metrics"
	"seadopt/internal/sched"
	"seadopt/internal/search"
	"seadopt/internal/taskgraph"
)

// Objective selects what the annealer minimizes.
type Objective int

const (
	// ObjectiveRegisterUsage minimizes R = Σ_i R_i (Exp:1).
	ObjectiveRegisterUsage Objective = iota
	// ObjectiveMakespan minimizes T_M (Exp:2, "parallelism").
	ObjectiveMakespan
	// ObjectiveRegTimeProduct minimizes T_M × R (Exp:3).
	ObjectiveRegTimeProduct
	// ObjectiveGamma minimizes eq. (3)'s Γ directly (ablation oracle).
	ObjectiveGamma
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case ObjectiveRegisterUsage:
		return "register-usage"
	case ObjectiveMakespan:
		return "makespan"
	case ObjectiveRegTimeProduct:
		return "regtime-product"
	case ObjectiveGamma:
		return "gamma"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Config parameterizes a simulated-annealing run.
type Config struct {
	Objective   Objective
	SER         faults.SERModel
	DeadlineSec float64
	Iterations  int // stream iterations for T_M semantics
	Moves       int // annealing steps; zero selects DefaultMoves
	Seed        int64
}

// DefaultMoves is the annealing budget when Config.Moves is zero.
const DefaultMoves = 4000

// The baselines' cooling schedule: the start and end temperatures as
// multiples of the sampled mean neighbor delta (search.Problem).
const (
	initialTempFrac = 0.2
	finalTempFrac   = 1e-4
)

func (c Config) withDefaults() Config {
	if c.Moves == 0 {
		c.Moves = DefaultMoves
	}
	if c.Iterations < 1 {
		c.Iterations = 1
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.SER.Validate(); err != nil {
		return err
	}
	if c.DeadlineSec < 0 {
		return fmt.Errorf("anneal: negative deadline %v", c.DeadlineSec)
	}
	if c.Moves < 0 {
		return fmt.Errorf("anneal: negative move budget %d", c.Moves)
	}
	if c.Objective < ObjectiveRegisterUsage || c.Objective > ObjectiveGamma {
		return fmt.Errorf("anneal: unknown objective %d", int(c.Objective))
	}
	return nil
}

// cost extracts the objective value with deadline penalty.
func cost(obj Objective, deadline float64, sc metrics.Score) float64 {
	var v float64
	switch obj {
	case ObjectiveRegisterUsage:
		v = float64(sc.TotalRegBits)
	case ObjectiveMakespan:
		v = sc.TMSeconds
	case ObjectiveRegTimeProduct:
		v = float64(sc.TotalRegBits) * sc.TMSeconds
	case ObjectiveGamma:
		v = sc.Gamma
	}
	if deadline > 0 && sc.TMSeconds > deadline {
		// Penalize in proportion to the violation so downhill moves toward
		// feasibility are visible to the annealer.
		v *= 1 + 10*(sc.TMSeconds-deadline)/deadline
	}
	return v
}

// Anneal searches for a mapping minimizing the configured objective at the
// given scaling vector, returning the evaluation of the best feasible
// mapping found (or the best overall if nothing feasible was seen). It runs
// on the shared engine of internal/search — the same neighborhood and
// cooling as the proposed mapper, so the experiments differ only in
// objective and starting point (Exp:1-3 start from a round-robin scatter).
//
// This is the one-shot form: it builds a throwaway evaluator. The engine
// path (Mapper, driven by mapping.Explore) anneals on the worker's shared
// evaluator via AnnealEval.
func Anneal(g *taskgraph.Graph, p *arch.Platform, scaling []int, cfg Config) (*metrics.Evaluation, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e, err := metrics.NewEvaluator(g, p, cfg.SER,
		metrics.Options{Iterations: cfg.Iterations, DeadlineSec: cfg.DeadlineSec})
	if err != nil {
		return nil, err
	}
	if err := e.Bind(scaling); err != nil {
		return nil, err
	}
	return AnnealEval(context.Background(), e, cfg, cfg.Seed)
}

// AnnealEval anneals on a prepared evaluator already bound to its scaling
// vector, deriving the walk from seed. The returned evaluation is owned by
// the caller.
func AnnealEval(ctx context.Context, e *metrics.Evaluator, cfg Config, seed int64) (*metrics.Evaluation, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res, err := search.Anneal(search.Problem{
		Ctx:             ctx,
		Cores:           e.Platform().Cores(),
		Initial:         sched.RoundRobin(e.Graph().N(), e.Platform().Cores()),
		Moves:           cfg.Moves,
		Seed:            seed ^ 0xA22EA1,
		InitialTempFrac: initialTempFrac,
		FinalTempFrac:   finalTempFrac,
		Evaluator:       e,
		Objective: func(sc metrics.Score) float64 {
			return cost(cfg.Objective, cfg.DeadlineSec, sc)
		},
	})
	if err != nil {
		return nil, err
	}
	ev, err := e.Evaluate(res.Best)
	if err != nil {
		return nil, err
	}
	return ev.Clone(), nil
}

// Mapper adapts the annealer to the outer Fig. 4 design loop, so Exp:1-3
// run under the same power-minimizing voltage-scaling iteration as the
// proposed technique (the paper applies step 1 to all four experiments).
// Within the loop the walk derives from the combination seed, not
// cfg.Seed, so the baselines parallelize deterministically exactly like the
// proposed mapper.
func Mapper(cfg Config) mapping.MapperFunc {
	return func(mc *mapping.MapContext) (sched.Mapping, *metrics.Evaluation, error) {
		ev, err := AnnealEval(mc.Ctx, mc.Eval, cfg, mc.Seed)
		if err != nil {
			return nil, nil, err
		}
		return ev.Schedule.Mapping, ev, nil
	}
}
