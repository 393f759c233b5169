package seadopt

import (
	"context"
	"fmt"
	"strings"

	"seadopt/internal/anneal"
	"seadopt/internal/arch"
	"seadopt/internal/faults"
	"seadopt/internal/mapping"
	"seadopt/internal/metrics"
	"seadopt/internal/pareto"
	"seadopt/internal/registers"
	"seadopt/internal/sched"
	"seadopt/internal/sim"
	"seadopt/internal/taskgraph"
)

// Re-exported model types. The implementation lives in internal packages;
// these aliases are the supported public names.
type (
	// Graph is an application task graph (DAG with computation costs,
	// communication costs and per-task register footprints).
	Graph = taskgraph.Graph
	// GraphBuilder assembles custom Graphs.
	GraphBuilder = taskgraph.Builder
	// TaskID indexes a task within its graph.
	TaskID = taskgraph.TaskID
	// Platform is an MPSoC configuration: processor types with per-core DVS
	// level tables. Homogeneous (the paper's C identical ARM7 cores) and
	// heterogeneous platforms share this type.
	Platform = arch.Platform
	// ProcType is one processor type of a heterogeneous platform: a named
	// DVS level table.
	ProcType = arch.ProcType
	// Level is one DVS operating point (scaling coefficient, f, Vdd).
	Level = arch.Level
	// Interconnect is a contended communication fabric: a shared bus or
	// XY-routed 2D mesh with finite link bandwidth and per-hop latency.
	// Platforms built without one use the paper's ideal fabric.
	Interconnect = arch.Interconnect
	// Topology names an interconnect topology (TopologyBus, TopologyMesh).
	Topology = arch.Topology
	// PlatformOption customizes platform construction (WithInterconnect).
	PlatformOption = arch.Option
	// Mapping assigns each task to a core.
	Mapping = sched.Mapping
	// Schedule is a list-scheduled execution of a mapping.
	Schedule = sched.Schedule
	// Evaluation is the analytic assessment of one design point.
	Evaluation = metrics.Evaluation
	// SERModel maps supply voltage to soft error rate.
	SERModel = faults.SERModel
	// SimResult is a cycle-level simulation outcome.
	SimResult = sim.Result
	// InjectionResult is a fault-injection campaign outcome.
	InjectionResult = faults.Result
	// RandomGraphConfig parameterizes the random workload generator.
	RandomGraphConfig = taskgraph.RandomConfig
	// RegisterInventory catalogues an application's register resources.
	RegisterInventory = registers.Inventory
	// RegisterSet is a set of register IDs (a task's footprint).
	RegisterSet = registers.Set
)

// Workload constructors and paper constants.
var (
	// MPEG2 returns the 11-task MPEG-2 decoder graph of Fig. 2.
	MPEG2 = taskgraph.MPEG2
	// Fig8 returns the paper's 6-task worked example.
	Fig8 = taskgraph.Fig8
	// NewGraphBuilder starts a custom graph over a register inventory.
	NewGraphBuilder = taskgraph.NewBuilder
	// NewRegisterInventory returns an empty register inventory.
	NewRegisterInventory = registers.NewInventory
	// RandomGraph draws a paper-parameterized random task graph.
	RandomGraph = taskgraph.Random
	// DefaultRandomGraphConfig is the §V random-workload parameterization.
	DefaultRandomGraphConfig = taskgraph.DefaultRandomConfig
	// RandomGraphDeadline is the paper's 1000·N/2 ms deadline, in seconds.
	RandomGraphDeadline = taskgraph.RandomDeadline
)

const (
	// MPEG2Deadline is the tennis-stream real-time constraint in seconds.
	MPEG2Deadline = taskgraph.MPEG2Deadline
	// MPEG2Frames is the stream length in frames.
	MPEG2Frames = taskgraph.MPEG2Frames
	// DefaultSER is the paper's soft error rate (1e-9 SEU/bit/cycle).
	DefaultSER = faults.DefaultSER
)

// System bundles an application with the platform it is being designed for.
type System struct {
	Graph    *Graph
	Platform *Platform
}

// NewARM7System builds a system on an ARM7 MPSoC with the given core count
// and DVS level-table size (2, 3 or 4 — Table I and the Fig. 11 variants).
func NewARM7System(g *Graph, cores, levels int) (*System, error) {
	if g == nil {
		return nil, fmt.Errorf("seadopt: nil graph")
	}
	table, err := arch.ARM7LevelsFor(levels)
	if err != nil {
		return nil, err
	}
	p, err := arch.NewPlatform(cores, table)
	if err != nil {
		return nil, err
	}
	return &System{Graph: g, Platform: p}, nil
}

// NewSystem builds a system on a custom platform.
func NewSystem(g *Graph, p *Platform) (*System, error) {
	if g == nil || p == nil {
		return nil, fmt.Errorf("seadopt: nil graph or platform")
	}
	return &System{Graph: g, Platform: p}, nil
}

// NewHeterogeneousPlatform builds a mixed MPSoC: core i is an instance of
// types[coreTypes[i]], each type carrying its own DVS level table. The
// exploration engine enumerates the resulting mixed-radix scaling space —
// cores sharing a physical table are treated as interchangeable, exactly
// like the paper's identical-core argument — and every determinism and
// strategy-equivalence guarantee of Optimize/OptimizePareto carries over.
// Platforms whose cores all share one table behave identically to
// NewARM7System/NewCustomPlatform ones. Options add fabric and calibration
// overrides; WithInterconnect puts the cores behind a contended bus or NoC.
func NewHeterogeneousPlatform(types []ProcType, coreTypes []int, opts ...PlatformOption) (*Platform, error) {
	return arch.NewHeterogeneousPlatform(types, coreTypes, opts...)
}

// Interconnect topologies, re-exported for WithInterconnect.
const (
	// TopologyBus is a single shared link every transfer serializes on.
	TopologyBus = arch.TopologyBus
	// TopologyMesh is an XY-routed 2D mesh NoC with per-direction links.
	TopologyMesh = arch.TopologyMesh
)

// WithInterconnect declares the platform's communication fabric. With it,
// every cross-core edge rides the interconnect: a message of
// cycles×BitsPerCycle bits holds each link of its route for bits/bandwidth
// seconds after hop-latency staggering, and concurrent transfers sharing a
// link queue deterministically. Scheduler, simulator, analytic bounds and
// the exploration engine all charge the same model, and every byte-identity
// guarantee (parallelism, strategy equivalence, sharding) carries over.
func WithInterconnect(ic Interconnect) PlatformOption {
	return arch.WithInterconnect(ic)
}

// ExploreProgress reports one resolved scaling combination of an
// optimization's design-space exploration; callbacks arrive in enumeration
// order regardless of parallelism. Under the branch-and-bound strategy,
// events with Pruned or Skipped set mark combinations proven irrelevant
// without running the mapper (their Design is nil).
type ExploreProgress = mapping.Progress

// ExploreStrategy selects how the design loop walks the voltage-scaling
// enumeration; see the strategy constants.
type ExploreStrategy = mapping.Strategy

// Exploration telemetry types, re-exported for OptimizeOptions.Stats
// consumers. All are observe-only snapshots: filling them never changes the
// chosen Design or frontier.
type (
	// ExploreStats is the per-run telemetry snapshot — phase clocks,
	// verdict counters, probe-cache and evaluator statistics, incumbent /
	// bound / frontier events, and per-worker busy spans.
	ExploreStats = mapping.ExploreStats
	// ExplorePhaseStats breaks the run into overlapping per-phase busy
	// clocks (bounds precompute, enumeration, probe, mapper, fold).
	ExplorePhaseStats = mapping.PhaseStats
	// ExploreComboStats counts combination verdicts (evaluated / pruned /
	// skipped) and mapper invocations.
	ExploreComboStats = mapping.ComboStats
	// ExploreEvent is one timestamped incumbent / bound-tightening /
	// frontier-admission / prune event.
	ExploreEvent = mapping.ExploreEvent
	// ExploreWorkerStats is one worker's busy time and combination spans.
	ExploreWorkerStats = mapping.WorkerStats
	// EvalStats counts evaluator work: evaluations, makespan-only calls
	// and the tasks those calls dispatched.
	EvalStats = metrics.EvalStats
)

// Exploration strategies.
const (
	// StrategyBranchAndBound (the default) streams the full enumeration
	// but proves most combinations irrelevant without mapping them:
	// scalings whose admissible best-case makespan misses the deadline are
	// pruned, scalings dominated on nominal power by a resolved feasible
	// incumbent are skipped. The chosen Design is byte-identical to
	// StrategyExhaustive.
	StrategyBranchAndBound = mapping.StrategyBranchAndBound
	// StrategyExhaustive maps every combination — the reference behavior
	// the paper tables are regenerated under.
	StrategyExhaustive = mapping.StrategyExhaustive
	// StrategySampled maps only a seed-deterministic random portfolio of
	// OptimizeOptions.SampleBudget combinations. Explicitly approximate:
	// the result is the best design within the sample.
	StrategySampled = mapping.StrategySampled
)

// ParseExploreStrategy resolves a strategy name from a flag or job option
// ("", "bnb", "exhaustive", "sampled", ...).
func ParseExploreStrategy(name string) (ExploreStrategy, error) {
	return mapping.ParseStrategy(name)
}

// ParetoObjectives selects which objective components participate in the
// multi-objective exploration's dominance tests; see the Objective
// constants. The zero value selects all three.
type ParetoObjectives = pareto.Objectives

// The Pareto objective components, all minimized.
const (
	// ObjectivePower is the scaling vector's full-utilization dynamic power
	// (eq. 5 with α ≡ 1) — the quantity the scalar loop minimizes.
	ObjectivePower = pareto.ObjPower
	// ObjectiveMakespan is T_M, the multiprocessor execution time;
	// minimizing it maximizes slack against the deadline.
	ObjectiveMakespan = pareto.ObjMakespan
	// ObjectiveGamma is Γ, the expected number of SEUs experienced (eq. 3)
	// — the paper's soft-error reliability metric.
	ObjectiveGamma = pareto.ObjGamma
)

// ParseParetoObjectives resolves a comma-separated objective list from a
// flag or job option ("power,gamma", "makespan", ...); the empty string
// selects all three objectives.
func ParseParetoObjectives(s string) (ParetoObjectives, error) {
	return pareto.ParseObjectives(s)
}

// OptimizeOptions tunes the design optimization.
type OptimizeOptions struct {
	// SER is the soft error rate per bit per cycle. 0 selects DefaultSER
	// (the paper's 1e-9); any negative value selects a true zero rate
	// (no soft errors, Γ ≡ 0), which the 0-means-default sentinel cannot
	// express.
	SER float64
	// DeadlineSec is the real-time constraint; 0 means unconstrained.
	DeadlineSec float64
	// StreamIterations is the number of stream iterations the task costs
	// cover (MPEG2Frames for the decoder; 0/1 for plain DAG semantics).
	StreamIterations int
	// SearchMoves bounds the per-scaling mapping search (0 = default).
	SearchMoves int
	// Seed makes runs reproducible. Results are identical at any
	// Parallelism for the same Seed.
	Seed int64
	// Parallelism bounds the worker pool exploring scaling combinations,
	// and the number of combinations the Ranked seeding pass probes at
	// once: 0 selects GOMAXPROCS, 1 runs sequentially.
	Parallelism int
	// Progress, when non-nil, is called once per resolved scaling
	// combination: one call at a time, in visit order, on an engine
	// goroutine (the caller's at Parallelism 1); keep it fast.
	Progress func(ExploreProgress)
	// Strategy selects the exploration walk: "" or StrategyBranchAndBound
	// (default; provably the same design as exhaustive, much faster on
	// large platforms), StrategyExhaustive, or StrategySampled
	// (approximate).
	Strategy ExploreStrategy
	// SampleBudget bounds StrategySampled's portfolio size (0 selects the
	// engine default). Ignored by the exact strategies.
	SampleBudget int
	// Ranked makes StrategyBranchAndBound locate its first feasible
	// incumbent by walking combinations in ascending nominal power before
	// the deterministic stream starts, probing Parallelism of them at a
	// time, so dominance pruning is active from the first combination.
	// The chosen design is unchanged (still byte-identical to exhaustive);
	// only wall-clock and the pruned/skipped split differ. Requires
	// StrategyBranchAndBound; ignored by OptimizePareto.
	Ranked bool
	// Objectives selects the objective components of the Pareto
	// exploration's dominance tests (OptimizePareto); 0 selects all three
	// (power, makespan, Γ). Ignored by the scalar optimizations.
	Objectives ParetoObjectives
	// Stats, when non-nil, receives an exploration-telemetry snapshot
	// after the run: per-phase busy clocks, verdict counters, probe-cache
	// and evaluator statistics, incumbent/bound events and per-worker
	// spans. Telemetry is observe-only — the chosen Design/frontier is
	// byte-identical with Stats set or nil.
	Stats *ExploreStats
	// Reuse shares probe verdicts, the bounds precompute and pooled
	// evaluators across optimizations of the same workload (see
	// ExploreReuse). Nil gives each call a private bundle, shared only by
	// that call's own passes. Results are byte-identical with or without
	// it.
	Reuse *ExploreReuse
}

// ExploreReuse bundles cross-run shared state — probe trajectory cache,
// bounds precompute, evaluator pool — for explorations over the same graph
// and platform (content-equal) with the same Seed and StreamIterations;
// DeadlineSec, SER and Objectives may vary between runs. Safe for
// concurrent use.
type ExploreReuse = mapping.Reuse

// NewExploreReuse returns an empty reuse bundle.
var NewExploreReuse = mapping.NewReuse

func (o OptimizeOptions) mappingConfig() mapping.Config {
	ser := o.SER
	switch {
	case ser == 0:
		ser = DefaultSER
	case ser < 0:
		ser = 0
	}
	return mapping.Config{
		SER:          faults.NewSERModel(ser),
		DeadlineSec:  o.DeadlineSec,
		Iterations:   o.StreamIterations,
		SearchMoves:  o.SearchMoves,
		Seed:         o.Seed,
		Parallelism:  o.Parallelism,
		Progress:     o.Progress,
		Strategy:     o.Strategy,
		SampleBudget: o.SampleBudget,
		Ranked:       o.Ranked,
		Objectives:   o.Objectives,
		Reuse:        o.Reuse,
	}
}

// telemetry installs a collector into cfg when o.Stats is non-nil and
// returns a snapshot function to run once the exploration finishes. The
// no-op fast path keeps telemetry-off runs allocation-free.
func (o OptimizeOptions) telemetry(cfg *mapping.Config) func() {
	if o.Stats == nil {
		return func() {}
	}
	tel := mapping.NewTelemetry()
	cfg.Telemetry = tel
	return func() { *o.Stats = *tel.Stats() }
}

// Design is an optimized design point.
type Design struct {
	Scaling []int
	Mapping Mapping
	Eval    *Evaluation
}

// Summary renders a human-readable description of the design.
func (d *Design) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scaling %v  P=%.3f mW  R=%.1f kbit  T_M=%.4f s  Γ=%.4g  deadline met: %v\n",
		d.Scaling, d.Eval.PowerW*1e3, float64(d.Eval.TotalRegBits)/1024.0,
		d.Eval.TMSeconds, d.Eval.Gamma, d.Eval.MeetsDeadline)
	coreTasks := d.Mapping.CoreTasks(len(d.Scaling))
	g := d.Eval.Schedule.Graph
	for c, tasks := range coreTasks {
		names := make([]string, len(tasks))
		for i, t := range tasks {
			names[i] = g.Task(t).Name
		}
		fmt.Fprintf(&sb, "  core %d (s=%d): %s\n", c, d.Scaling[c], strings.Join(names, ", "))
	}
	return sb.String()
}

// Gantt renders the design's schedule as an ASCII chart.
func (d *Design) Gantt(width int) string { return d.Eval.Schedule.Gantt(width) }

// Optimize runs the paper's full design loop (Fig. 4): voltage-scaling
// enumeration with the proposed soft error-aware task mapper, returning the
// deadline-meeting design with minimum power, tie-broken by minimum Γ.
// Scaling combinations are explored concurrently under
// OptimizeOptions.Parallelism, streamed (never materialized) and — under
// the default branch-and-bound strategy — pruned wherever an admissible
// bound proves a combination irrelevant; the result is identical at any
// parallelism and, for the exact strategies, at any strategy.
func (s *System) Optimize(opts OptimizeOptions) (*Design, error) {
	return s.OptimizeContext(context.Background(), opts)
}

// OptimizeContext is Optimize with cancellation: when ctx is cancelled the
// exploration stops promptly and returns ctx.Err().
func (s *System) OptimizeContext(ctx context.Context, opts OptimizeOptions) (*Design, error) {
	cfg := opts.mappingConfig()
	snap := opts.telemetry(&cfg)
	best, err := mapping.ExploreContext(ctx, s.Graph, s.Platform, mapping.SEAMapper(cfg), cfg)
	if err != nil {
		return nil, err
	}
	snap()
	return &Design{Scaling: best.Scaling, Mapping: best.Mapping, Eval: best.Eval}, nil
}

// OptimizePareto runs the multi-objective design loop: instead of
// collapsing the exploration to the single minimum-power design, it keeps
// the whole trade-off surface the paper's figures plot — the Pareto
// frontier of deadline-feasible designs over OptimizeOptions.Objectives
// (nominal power, T_M and Γ by default). The frontier is returned ordered
// ascending by the active objectives in canonical order — power, then T_M,
// then Γ, skipping excluded components — tie-broken by enumeration index
// (so with the default objectives, frontier[0] is the minimum-power
// member), and is byte-identical at any Parallelism and across the exact
// strategies:
// branch-and-bound prunes combinations the admissible makespan bound proves
// infeasible and skips combinations whose objective lower bound is
// dominated by a frontier member, and provably returns the exhaustive
// frontier. When no design meets the deadline, the frontier degenerates to
// the scalar loop's single "least infeasible" design.
func (s *System) OptimizePareto(opts OptimizeOptions) ([]*Design, error) {
	return s.OptimizeParetoContext(context.Background(), opts)
}

// OptimizeParetoContext is OptimizePareto with cancellation: when ctx is
// cancelled the exploration stops promptly and returns ctx.Err().
func (s *System) OptimizeParetoContext(ctx context.Context, opts OptimizeOptions) ([]*Design, error) {
	cfg := opts.mappingConfig()
	snap := opts.telemetry(&cfg)
	frontier, err := mapping.ExploreParetoContext(ctx, s.Graph, s.Platform, mapping.SEAMapper(cfg), cfg)
	if err != nil {
		return nil, err
	}
	snap()
	out := make([]*Design, len(frontier))
	for i, d := range frontier {
		out[i] = &Design{Scaling: d.Scaling, Mapping: d.Mapping, Eval: d.Eval}
	}
	return out, nil
}

// Distributed sharded exploration: the combination enumeration partitions
// into contiguous rank ranges explored by peer workers (in-process or HTTP
// peers). Every shard takes one self-contained request — a range, a fold
// and whether to prune — and shares nothing while it runs. The coordinator
// merges the shards' records in one more streaming pass that takes them as
// hints (internal/mapping/shard.go states what a record is trusted with);
// with honest shards the merged Design/frontier and Progress stream are
// byte-identical to the single-node Optimize/OptimizePareto run. A ranked
// solve whose ranked pass finds a probe-feasible scaling shards nothing: its
// main pass resolves on the coordinator, as a single-node run's does.
type (
	// ShardRange is one contiguous [Lo,Hi) slice of the enumeration.
	ShardRange = mapping.ShardRange
	// ShardRequest asks a worker to explore one range.
	ShardRequest = mapping.ShardRequest
	// ShardResult is a worker's per-combination record stream.
	ShardResult = mapping.ShardResult
	// ShardRunner executes one shard request wherever the shard lives.
	ShardRunner = mapping.ShardRunner
)

// RunShard is the worker side of the distributed exploration: it explores
// req.Range of this system under opts and returns the record stream the
// coordinator merges. Progress/Stats callbacks are coordinator concerns and
// are ignored here.
func (s *System) RunShard(ctx context.Context, opts OptimizeOptions, req ShardRequest) (*ShardResult, error) {
	cfg := opts.mappingConfig()
	return mapping.ExploreShard(ctx, s.Graph, s.Platform, mapping.SEAMapper(cfg), cfg, req)
}

// OptimizeShardedContext is OptimizeContext distributed over len(runners)
// contiguous shards; nil runner entries execute their shard embedded in
// this process. The chosen Design and the Progress stream are
// byte-identical to OptimizeContext at any shard count and runner mix.
// OptimizeOptions.Stats receives the coordinator's telemetry: the shards
// run without a collector.
func (s *System) OptimizeShardedContext(ctx context.Context, opts OptimizeOptions, runners []ShardRunner) (*Design, error) {
	cfg := opts.mappingConfig()
	snap := opts.telemetry(&cfg)
	best, err := mapping.ExploreSharded(ctx, s.Graph, s.Platform, mapping.SEAMapper(cfg), cfg, runners)
	if err != nil {
		return nil, err
	}
	snap()
	return &Design{Scaling: best.Scaling, Mapping: best.Mapping, Eval: best.Eval}, nil
}

// OptimizeShardedParetoContext is OptimizeParetoContext distributed over
// len(runners) contiguous shards, with the same byte-identity guarantee
// for the returned frontier and the same telemetry scope as
// OptimizeShardedContext.
func (s *System) OptimizeShardedParetoContext(ctx context.Context, opts OptimizeOptions, runners []ShardRunner) ([]*Design, error) {
	cfg := opts.mappingConfig()
	snap := opts.telemetry(&cfg)
	frontier, err := mapping.ExploreShardedPareto(ctx, s.Graph, s.Platform, mapping.SEAMapper(cfg), cfg, runners)
	if err != nil {
		return nil, err
	}
	snap()
	out := make([]*Design, len(frontier))
	for i, d := range frontier {
		out[i] = &Design{Scaling: d.Scaling, Mapping: d.Mapping, Eval: d.Eval}
	}
	return out, nil
}

// SweepPoint is one problem variant of a batch sweep: a deadline plus the
// reduction to run at it (scalar minimum-power, or a Pareto frontier over
// Objectives).
type SweepPoint struct {
	// DeadlineSec is the point's real-time constraint; 0 means
	// unconstrained.
	DeadlineSec float64
	// Pareto selects the multi-objective frontier reduction for this point;
	// false runs the scalar minimum-power reduction.
	Pareto bool
	// Objectives selects the Pareto dominance components (0 = all three).
	// Ignored for scalar points.
	Objectives ParetoObjectives
}

// SweepPointResult is one sweep point's outcome: Design for scalar points,
// Frontier for Pareto points.
type SweepPointResult struct {
	// Point is the index into the submitted points slice.
	Point int
	// Spec echoes the point definition.
	Spec SweepPoint
	// Design is the scalar result (nil for Pareto points).
	Design *Design
	// Frontier is the Pareto result (nil for scalar points).
	Frontier []*Design
}

// SweepOptions tunes OptimizeSweep.
type SweepOptions struct {
	// Options is the base optimization configuration shared by every point;
	// its DeadlineSec, Objectives and Progress fields are overridden per
	// point. When Options.Stats is set it receives ONE sweep-wide telemetry
	// aggregate (the probe-cache hit counters there are how a deadline-only
	// sweep's ~100% hit rate is observable). Options.Reuse, when set, lets
	// several sweeps (or a service) share one reuse bundle; otherwise the
	// sweep allocates a private one.
	Options OptimizeOptions
	// NoWarmStart disables the incumbent pre-seeding of scalar points (the
	// Ranked pass). Pareto points never take seeds from other points, and
	// shared probe/bounds/evaluator reuse stays on — it is
	// verdict-preserving by construction. With NoWarmStart the whole
	// per-point event stream (including the Pruned/Skipped split) is
	// byte-identical to independent cold runs; without it, only the
	// per-point Design/frontier is.
	NoWarmStart bool
	// PointProgress, when non-nil, receives every point's exploration
	// progress, tagged with the point index: one call at a time, points in
	// order and each point's events in visit order, on an engine goroutine
	// (the caller's at Parallelism 1).
	PointProgress func(point int, ev ExploreProgress)
}

// OptimizeSweep evaluates many problem variants — a deadline sweep,
// mixed scalar/Pareto reductions, per-point objective sets — over ONE
// shared reuse layer: one bounds precompute, one evaluator pool and one
// probe-trajectory cache for the whole batch, so a probe verdict computed
// for point 1 is never recomputed for point 2 (the probe's climb is
// deadline-independent; see ProbeCache). Points run in deterministic
// submission order and each point's result is byte-identical to an
// independent cold Optimize/OptimizePareto run at that point's options —
// warm-starting accelerates, never alters. An 8-point deadline sweep runs
// roughly an order of magnitude faster than 8 cold runs
// (BenchmarkSweepWarmVsCold).
func (s *System) OptimizeSweep(points []SweepPoint, o SweepOptions) ([]SweepPointResult, error) {
	return s.OptimizeSweepContext(context.Background(), points, o)
}

// OptimizeSweepContext is OptimizeSweep with cancellation: when ctx is
// cancelled the sweep stops promptly and returns ctx.Err().
func (s *System) OptimizeSweepContext(ctx context.Context, points []SweepPoint, o SweepOptions) ([]SweepPointResult, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("seadopt: sweep needs at least one point")
	}
	base := o.Options
	base.Progress = nil
	if base.Reuse == nil {
		base.Reuse = NewExploreReuse()
	}
	// One telemetry collector spans the whole sweep, so Stats aggregates
	// probe hits, evaluator work and phase clocks across the points.
	var tel *mapping.Telemetry
	stats := base.Stats
	base.Stats = nil
	if stats != nil {
		tel = mapping.NewTelemetry()
	}

	bnb := base.Strategy == "" || base.Strategy == StrategyBranchAndBound

	results := make([]SweepPointResult, len(points))
	for i, pt := range points {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		popt := base
		popt.DeadlineSec = pt.DeadlineSec
		cfg := popt.mappingConfig()
		cfg.Telemetry = tel
		if o.PointProgress != nil {
			point := i
			cfg.Progress = func(ev ExploreProgress) { o.PointProgress(point, ev) }
		}
		results[i] = SweepPointResult{Point: i, Spec: pt}
		if pt.Pareto {
			cfg.Objectives = pt.Objectives
			frontier, err := mapping.ExploreParetoContext(ctx, s.Graph, s.Platform, mapping.SEAMapper(cfg), cfg)
			if err != nil {
				return nil, err
			}
			out := make([]*Design, len(frontier))
			for j, d := range frontier {
				out[j] = &Design{Scaling: d.Scaling, Mapping: d.Mapping, Eval: d.Eval}
			}
			results[i].Frontier = out
		} else {
			if !o.NoWarmStart && bnb {
				// The ranked pass finds the global minimum probe-feasible
				// nominal — at least as tight as any prior point's winner —
				// and its probes are all shared-cache work, so warm points
				// pay only the ranked walk plus an already-pruned stream.
				cfg.Ranked = true
			}
			best, err := mapping.ExploreContext(ctx, s.Graph, s.Platform, mapping.SEAMapper(cfg), cfg)
			if err != nil {
				return nil, err
			}
			results[i].Design = &Design{Scaling: best.Scaling, Mapping: best.Mapping, Eval: best.Eval}
		}
	}
	if stats != nil {
		*stats = *tel.Stats()
	}
	return results, nil
}

// BaselineObjective selects a soft error-unaware optimization objective.
type BaselineObjective = anneal.Objective

// Baseline objectives (the paper's Exp:1-3 plus the Γ oracle).
const (
	MinimizeRegisterUsage = anneal.ObjectiveRegisterUsage
	MinimizeMakespan      = anneal.ObjectiveMakespan
	MinimizeRegTime       = anneal.ObjectiveRegTimeProduct
	MinimizeGammaOracle   = anneal.ObjectiveGamma
)

// ExposureMode selects the liveness fidelity used by fault injection and
// pressure profiles.
type ExposureMode = sim.ExposureMode

// Exposure fidelities: the paper's conservative model (allocated state is
// live for the whole run) and the measured first-use..last-use refinement.
const (
	ExposureConservative = sim.ExposureConservative
	ExposureLifetime     = sim.ExposureLifetime
)

// OptimizeBaseline runs the same design loop with a soft error-unaware
// simulated-annealing mapper (the paper's Exp:1-3 baselines).
func (s *System) OptimizeBaseline(obj BaselineObjective, opts OptimizeOptions) (*Design, error) {
	return s.OptimizeBaselineContext(context.Background(), obj, opts)
}

// OptimizeBaselineContext is OptimizeBaseline with cancellation.
func (s *System) OptimizeBaselineContext(ctx context.Context, obj BaselineObjective, opts OptimizeOptions) (*Design, error) {
	cfg := opts.mappingConfig()
	snap := opts.telemetry(&cfg)
	acfg := anneal.Config{
		Objective:   obj,
		SER:         cfg.SER,
		DeadlineSec: cfg.DeadlineSec,
		Iterations:  cfg.Iterations,
		Moves:       cfg.SearchMoves,
		Seed:        cfg.Seed,
	}
	best, err := mapping.ExploreContext(ctx, s.Graph, s.Platform, anneal.Mapper(acfg), cfg)
	if err != nil {
		return nil, err
	}
	snap()
	return &Design{Scaling: best.Scaling, Mapping: best.Mapping, Eval: best.Eval}, nil
}

// MapAtScaling runs only the proposed task mapper (stages 1+2 of step 2) at
// a fixed per-core scaling vector.
func (s *System) MapAtScaling(scaling []int, opts OptimizeOptions) (*Design, error) {
	cfg := opts.mappingConfig()
	m, ev, err := mapping.MapOnce(context.Background(), s.Graph, s.Platform, scaling, mapping.SEAMapper(cfg), cfg)
	if err != nil {
		return nil, err
	}
	return &Design{Scaling: append([]int(nil), scaling...), Mapping: m, Eval: ev}, nil
}

// Evaluate analytically assesses an explicit (mapping, scaling) design point
// (eqs. 3, 5, 7, 8).
func (s *System) Evaluate(m Mapping, scaling []int, opts OptimizeOptions) (*Evaluation, error) {
	cfg := opts.mappingConfig()
	return metrics.Evaluate(s.Graph, s.Platform, m, scaling, cfg.SER,
		metrics.Options{Iterations: cfg.Iterations, DeadlineSec: cfg.DeadlineSec})
}

// Simulate executes the design on the cycle-level MPSoC model (the SystemC
// stand-in), returning the measured makespan, task events and utilization.
func (s *System) Simulate(m Mapping, scaling []int, streamIterations int) (*SimResult, error) {
	return sim.Run(s.Graph, s.Platform, m, scaling, sim.Config{Iterations: streamIterations})
}

// InjectFaults simulates the design and runs a Poisson SEU fault-injection
// campaign over its register liveness trace, returning the measured number
// of SEUs experienced and its analytic expectation. ser follows the
// OptimizeOptions.SER convention: 0 selects DefaultSER, negative selects a
// true zero rate.
func (s *System) InjectFaults(m Mapping, scaling []int, streamIterations int,
	ser float64, seed int64) (measured int64, expected float64, err error) {
	switch {
	case ser == 0:
		ser = DefaultSER
	case ser < 0:
		ser = 0
	}
	r, err := s.Simulate(m, scaling, streamIterations)
	if err != nil {
		return 0, 0, err
	}
	return r.MeasureGamma(faults.NewSERModel(ser), sim.ExposureConservative, seed)
}

// ScalingCombinations returns the paper's Fig. 5 voltage-scaling enumeration
// for this platform (non-increasing per-core coefficient vectors).
func (s *System) ScalingCombinations() ([][]int, error) {
	return vscaleAll(s.Platform)
}
