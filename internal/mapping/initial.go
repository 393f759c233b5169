// Package mapping implements the paper's contribution: soft error-aware
// design optimization of an application task graph on a DVS-capable MPSoC
// (Section IV).
//
// The optimization has three cooperating pieces:
//
//   - InitialSEAMapping (Fig. 6): a greedy constructive mapping that walks
//     the task graph dependency-first, packing each core with the dependent
//     task that adds the fewest SEUs (register-set union growth × time ×
//     λ) until the core's busy time approaches the real-time constraint.
//   - OptimizedMapping (Fig. 7): local search around the initial mapping
//     using task movements and swaps, list-scheduling every candidate and
//     keeping the feasible mapping with the fewest SEUs experienced.
//   - Explore (Fig. 4): the outer design loop — enumerate voltage-scaling
//     combinations (internal/vscale), run the mapper at each, and keep the
//     deadline-meeting design with minimum power, tie-broken by minimum Γ.
package mapping

import (
	"fmt"
	"sort"

	"seadopt/internal/arch"
	"seadopt/internal/faults"
	"seadopt/internal/pareto"
	"seadopt/internal/registers"
	"seadopt/internal/sched"
	"seadopt/internal/taskgraph"
)

// Config parameterizes the soft error-aware optimization.
type Config struct {
	// SER is the soft error rate model (λ as a function of V_dd).
	SER faults.SERModel
	// DeadlineSec is the real-time constraint T_Mref.
	DeadlineSec float64
	// Iterations is the stream-iteration count for T_M semantics
	// (taskgraph.MPEG2Frames for the decoder, 1 for plain DAGs).
	Iterations int
	// SearchMoves bounds the OptimizedMapping neighborhood search per
	// scaling combination (the paper uses a wall-clock budget; an iteration
	// budget keeps runs deterministic). Zero selects DefaultSearchMoves.
	SearchMoves int
	// Seed drives the (deterministic) random neighborhood generation.
	Seed int64
	// Parallelism bounds the Explore worker pool: each worker maps one
	// scaling combination at a time on its own reusable evaluator, and in
	// the incumbent-seeding pass (Ranked) each worker probes the next
	// unclaimed combination of the ranked walk. 0 selects GOMAXPROCS; 1 runs
	// sequentially. Results are identical at any setting.
	Parallelism int
	// Progress, when non-nil, receives one callback per resolved scaling
	// combination, in visit order. Callbacks run on the exploring
	// goroutine; keep them fast.
	Progress func(Progress)
	// Strategy selects how Explore walks the scaling enumeration: "" or
	// StrategyBranchAndBound (default, provably the same answer as
	// exhaustive), StrategyExhaustive (map every combination), or
	// StrategySampled (budgeted random portfolio, approximate).
	Strategy Strategy
	// SampleBudget bounds StrategySampled's portfolio size; 0 selects
	// DefaultSampleBudget. Ignored by the other strategies.
	SampleBudget int
	// Ranked makes StrategyBranchAndBound seed its dominance incumbent
	// before the deterministic stream starts: a pass walks combinations in
	// ascending nominal power (vscale.RankedFrontier), prunes
	// bound-infeasible ones, and probes the rest, Parallelism workers each
	// claiming the next one, until a probe-feasible combination is found;
	// the lowest-ranked one's nominal power — the minimum of any
	// probe-feasible combination, at any Parallelism — becomes the
	// dominance threshold from position zero. The fold order stays the
	// descending-lexicographic enumeration, so the chosen Design,
	// perScaling and the Progress stream remain deterministic (and the
	// Design byte-identical to StrategyExhaustive); only the Pruned/Skipped
	// split can differ from an unseeded run. Requires
	// StrategyBranchAndBound; ignored by the Pareto fold.
	Ranked bool
	// Objectives selects the objective components of the Pareto fold
	// (ExploreParetoContext); 0 selects pareto.DefaultObjectives (power,
	// makespan and Γ). Ignored by the scalar fold.
	Objectives pareto.Objectives
	// DiscardPerScaling suppresses the perScaling return of Explore so
	// huge enumerations don't retain one Design per combination; callers
	// that only need the best design (the facade, the service) set it.
	DiscardPerScaling bool
	// Reuse shares bounds precompute, probe cache and pooled evaluators
	// across explorations of the same workload (a sweep's points, the four
	// experiments of Table II, or fingerprint-matching service jobs). Nil
	// gives each call a private bundle, shared only by that call's own
	// passes. See Reuse for the sharing contract. Results are
	// byte-identical with or without it.
	Reuse *Reuse
	// Telemetry, when non-nil, collects observe-only instrumentation —
	// per-phase busy clocks, verdict counters, probe-cache and evaluator
	// stats, incumbent/bound events and per-worker spans — snapshotted via
	// Telemetry.Stats after the exploration returns. It never influences
	// any engine decision: results are byte-identical with or without it.
	Telemetry *Telemetry
}

// DefaultSearchMoves is the per-scaling neighborhood budget when
// Config.SearchMoves is zero.
const DefaultSearchMoves = 4000

func (c Config) withDefaults() Config {
	if c.SearchMoves == 0 {
		c.SearchMoves = DefaultSearchMoves
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
		return fmt.Errorf("mapping: negative deadline %v", c.DeadlineSec)
	}
	if c.SearchMoves < 0 {
		return fmt.Errorf("mapping: negative search budget %d", c.SearchMoves)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("mapping: negative parallelism %d", c.Parallelism)
	}
	if err := c.Strategy.Valid(); err != nil {
		return err
	}
	if c.SampleBudget < 0 {
		return fmt.Errorf("mapping: negative sample budget %d", c.SampleBudget)
	}
	if c.Ranked && c.Strategy.withDefault() != StrategyBranchAndBound {
		return fmt.Errorf("mapping: Ranked incumbent seeding requires StrategyBranchAndBound, got %q", c.Strategy)
	}
	if c.Objectives != 0 {
		if err := c.Objectives.Valid(); err != nil {
			return err
		}
	}
	return nil
}

// InitialSEAMapping implements the constructive stage of Fig. 6. Cores
// 0..C-2 are filled one at a time: starting from the front of the candidate
// queue (seeded with the graph's root tasks), the mapper repeatedly adds the
// unmapped dependent of the current task that yields the fewest additional
// SEUs on this core — the candidate minimizing
//
//	(union register bits after adding) × (core busy seconds after adding) × λ_core
//
// — stopping when the core's busy time would reach the deadline or when the
// remaining tasks are just enough to populate the remaining cores. Dependents
// not chosen spill into the queue for later cores; any tasks left when the
// loop ends are assigned to the last core.
func InitialSEAMapping(g *taskgraph.Graph, p *arch.Platform, scaling []int, cfg Config) (sched.Mapping, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := p.ValidScaling(scaling); err != nil {
		return nil, err
	}
	n := g.N()
	cores := p.Cores()
	m := make(sched.Mapping, n)
	for i := range m {
		m[i] = -1
	}

	freq := make([]float64, cores)
	lambda := make([]float64, cores)
	for c, s := range scaling {
		level := p.MustCoreLevel(c, s)
		freq[c] = level.FreqHz()
		lambda[c] = cfg.SER.RatePerSec(level.Vdd)
	}

	// Candidate queue seeded with the root tasks (line 1 generalized to
	// multi-root graphs so every task stays reachable).
	var queue []taskgraph.TaskID
	inQueue := make([]bool, n)
	pushQueue := func(t taskgraph.TaskID) {
		if m[t] < 0 && !inQueue[t] {
			inQueue[t] = true
			queue = append(queue, t)
		}
	}
	popQueue := func() (taskgraph.TaskID, bool) {
		for len(queue) > 0 {
			t := queue[0]
			queue = queue[1:]
			inQueue[t] = false
			if m[t] < 0 {
				return t, true
			}
		}
		return 0, false
	}
	for _, r := range g.Roots() {
		pushQueue(r)
	}

	unmapped := n
	assign := func(t taskgraph.TaskID, core int) {
		m[t] = core
		unmapped--
	}

	deadline := cfg.DeadlineSec

	for core := 0; core < cores-1; core++ {
		t, ok := popQueue()
		if !ok {
			break
		}
		assign(t, core)
		coreSet := g.Task(t).Registers.Clone()
		coreSec := float64(g.Task(t).Cycles) / freq[core]
		inv := g.Inventory()

		for {
			// Stop when the core is full (busy time at the deadline) or
			// when the remaining tasks are needed for the remaining cores
			// (lines 4, 11-13).
			if deadline > 0 && coreSec >= deadline {
				break
			}
			if unmapped <= cores-1-core {
				break
			}
			// L: unmapped dependents of the current task, scored by the
			// SEUs they would add if mapped here (line 5).
			type cand struct {
				id    taskgraph.TaskID
				score float64
				sec   float64
			}
			var l []cand
			for _, e := range g.Succs(t) {
				if m[e.To] >= 0 {
					continue
				}
				newBits := inv.SetBits(registers.Union(coreSet, g.Task(e.To).Registers))
				newSec := coreSec + float64(g.Task(e.To).Cycles)/freq[core]
				l = append(l, cand{
					id:    e.To,
					score: float64(newBits) * newSec * lambda[core],
					sec:   newSec,
				})
			}
			sort.Slice(l, func(i, j int) bool {
				if l[i].score != l[j].score {
					return l[i].score < l[j].score
				}
				if l[i].sec != l[j].sec {
					return l[i].sec < l[j].sec
				}
				return l[i].id < l[j].id
			})

			if len(l) == 0 {
				// Line 6-7: no dependents to extend with — rotate the queue
				// (the paper swaps the last two entries) and continue from
				// its front; bail out if that cannot make progress.
				if len(queue) >= 2 {
					queue[len(queue)-1], queue[len(queue)-2] = queue[len(queue)-2], queue[len(queue)-1]
				}
				next, ok := popQueue()
				if !ok {
					break
				}
				// Deadline guard before committing the queue task here.
				nextSec := coreSec + float64(g.Task(next).Cycles)/freq[core]
				if deadline > 0 && nextSec > deadline {
					pushQueue(next)
					break
				}
				assign(next, core)
				coreSet.UnionWith(g.Task(next).Registers)
				coreSec = nextSec
				t = next
				continue
			}

			best := l[0]
			if deadline > 0 && best.sec > deadline {
				// Even the cheapest dependent overruns the core; spill all
				// candidates and move to the next core.
				for _, c := range l {
					pushQueue(c.id)
				}
				break
			}
			// Lines 9-10: map the min-SEU dependent, spill the rest.
			assign(best.id, core)
			coreSet.UnionWith(g.Task(best.id).Registers)
			coreSec = best.sec
			for _, c := range l[1:] {
				pushQueue(c.id)
			}
			t = best.id
		}
	}

	// Whatever is left belongs to the last core (the Fig. 8 walk-through
	// maps the residual queue there).
	for t := 0; t < n; t++ {
		if m[t] < 0 {
			m[t] = cores - 1
		}
	}
	repairEmptyCores(g, m, cores)
	return m, nil
}

// repairEmptyCores enforces the Fig. 6 premise that every allocated core
// hosts at least one task (when N ≥ C): empty cores steal the last-mapped
// task from the most-loaded core, which keeps the greedy clusters intact.
func repairEmptyCores(g *taskgraph.Graph, m sched.Mapping, cores int) {
	if g.N() < cores {
		return
	}
	loads := m.CoreLoads(cores)
	for c := 0; c < cores; c++ {
		if loads[c] > 0 {
			continue
		}
		donor := 0
		for i := 1; i < cores; i++ {
			if loads[i] > loads[donor] {
				donor = i
			}
		}
		if loads[donor] < 2 {
			return // nothing to steal without emptying the donor
		}
		for t := g.N() - 1; t >= 0; t-- {
			if m[t] == donor {
				m[t] = c
				loads[donor]--
				loads[c]++
				break
			}
		}
	}
}
