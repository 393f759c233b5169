package mapping

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"seadopt/internal/arch"
	"seadopt/internal/metrics"
	"seadopt/internal/pareto"
	"seadopt/internal/sched"
	"seadopt/internal/taskgraph"
	"seadopt/internal/vscale"
)

// Design is one optimized design point: the scaling vector chosen by the
// outer loop and the best mapping the inner search found for it.
type Design struct {
	Scaling []int
	Mapping sched.Mapping
	Eval    *metrics.Evaluation
}

// Progress reports one resolved scaling combination of an exploration.
// Callbacks arrive in visit order (combination at position i is reported
// only after 0..i-1), regardless of the worker parallelism, and every
// field of the event stream is deterministic for a given (Config, graph,
// platform) at any Parallelism.
//
// The event is BORROWED: its slice-valued fields (Scaling in particular)
// are recycled by the engine as soon as the callback returns, so callbacks
// must copy anything they retain.
type Progress struct {
	// Index is the 0-based visit position; Total the number of
	// combinations this exploration visits. Under StrategyExhaustive and
	// StrategyBranchAndBound every enumeration entry is visited, so Index
	// equals Combination; under StrategySampled, Index counts within the
	// sample.
	Index, Total int
	// Combination is the combination's stable Fig. 5 enumeration index,
	// whatever order or subset the strategy visits.
	Combination int
	// Scaling is the combination's per-core vector. Borrowed: valid only
	// for the duration of the callback; copy to retain, do not mutate.
	Scaling []int
	// Pruned reports that the combination's admissible makespan lower
	// bound already misses the deadline: it is provably infeasible and the
	// mapper never ran. Design is nil for pruned combinations.
	Pruned bool
	// Skipped reports that the combination is provably irrelevant to the
	// fold's result — dominated on nominal power by a feasible incumbent,
	// probe-infeasible while a probed incumbent stands (scalar fold), or
	// bound-dominated by the frontier (Pareto fold) — so the mapper was
	// skipped or its design discarded. Design is nil for skipped
	// combinations.
	Skipped bool
	// Design is the combination's optimized design; nil when Pruned or
	// Skipped.
	Design *Design
	// Best is the incumbent best design after folding this combination in
	// (under the Pareto fold: the frontier member minimal in the canonical
	// active-objective order, i.e. minimum power when power is an active
	// objective); nil until the first combination is actually evaluated.
	Best *Design
	// FrontierSize is the number of non-dominated designs after folding
	// this combination in. Zero under the scalar fold.
	FrontierSize int
	// Admitted reports that this combination's design joined the Pareto
	// frontier (possibly evicting dominated members). Always false under
	// the scalar fold.
	Admitted bool
}

// Explore runs the outer design loop of Fig. 4 with background context; see
// ExploreContext.
func Explore(g *taskgraph.Graph, p *arch.Platform, mapper MapperFunc, cfg Config) (*Design, error) {
	return ExploreContext(context.Background(), g, p, mapper, cfg)
}

// ExploreContext runs the outer design loop of Fig. 4: voltage-scaling
// combinations from the Fig. 5 enumeration are streamed to the mapper
// (step 2); step 3's assessment keeps the deadline-meeting design whose
// *scaling* has minimum nominal power — power minimization happens at the
// voltage-scaling level (step 1 of the flow), before mapping — tie-broken
// by minimum Γ and then by minimum measured (utilization-weighted) power.
//
// Config.Strategy picks the walk: StrategyExhaustive maps every
// combination; StrategyBranchAndBound (the default) prunes combinations an
// admissible bound proves infeasible and skips combinations that provably
// cannot change the verdict — dominated on nominal power by a resolved
// feasible incumbent, or probe-infeasible while any probed incumbent stands
// — and returns a byte-identical best Design; StrategySampled maps a
// budgeted random portfolio. With Config.Ranked, branch-and-bound first
// locates a feasible incumbent by walking combinations in ascending nominal
// power, so the dominance threshold is in force from the very first
// combination of the deterministic stream. The enumeration is never
// materialized: combinations stream through a bounded reorder window, so
// memory is O(workers), not O(combinations). Config.Progress receives every
// visited combination's Design (nil when pruned or skipped) in visit order.
//
// Combinations are independent, so they fan out over a bounded worker pool
// (Config.Parallelism workers; 0 selects GOMAXPROCS). Each worker owns one
// reusable metrics.Evaluator rebound per combination, and each combination
// derives its own seed from (Config.Seed, enumeration index), so the chosen
// best design and every Progress callback are identical at any
// parallelism. Cancelling ctx stops the workers promptly and returns
// ctx.Err().
func ExploreContext(ctx context.Context, g *taskgraph.Graph, p *arch.Platform,
	mapper MapperFunc, cfg Config) (*Design, error) {
	ctx, cfg, err := setup(ctx, cfg, false)
	if err != nil {
		return nil, err
	}
	return exploreScalar(ctx, g, p, mapper, cfg, exploreCore)
}

// ExploreParetoContext runs the same streamed design loop as ExploreContext
// but replaces the scalar step-3 reduction with a multi-objective
// non-dominated fold: every deadline-feasible resolved combination's
// objective vector — nominal power, T_M and Γ, restricted to
// Config.Objectives — is offered to a streaming Pareto frontier, and the
// ordered frontier (ascending by the active objectives in canonical order
// — power, then T_M, then Γ — then by enumeration index) is returned as a
// list of Designs.
//
// Under StrategyBranchAndBound the dominance pruning switches from the
// scalar incumbent to frontier-dominance: a combination is skipped only when
// its admissible objective lower bound — exact nominal power, the
// metrics.Bounds T_M lower bound, zero Γ — is strictly dominated by a
// frontier member, which proves its realized vector cannot join the
// frontier. Deadline-bound pruning applies unchanged. The frontier is
// byte-identical to StrategyExhaustive's at any Parallelism. Config.Ranked
// is ignored: the frontier admits only realized designs, so there is no
// scalar incumbent to pre-seed.
//
// When no deadline-feasible design exists the frontier would be empty;
// instead the scalar engine's degenerate verdict — the deterministic "least
// infeasible" design of an exhaustive pass — is returned as a single-entry
// frontier, so callers always receive at least one design.
func ExploreParetoContext(ctx context.Context, g *taskgraph.Graph, p *arch.Platform,
	mapper MapperFunc, cfg Config) ([]*Design, error) {
	ctx, cfg, err := setup(ctx, cfg, true)
	if err != nil {
		return nil, err
	}
	return explorePareto(ctx, g, p, mapper, cfg, exploreCore)
}

// setup normalizes an entry point's Config: defaults, the Pareto fold's
// default objectives, validation, and a private Reuse bundle when the caller
// shares none, so every pass of the call — seed, stream and fallback —
// shares one probe cache, bounds precompute and evaluator pool.
func setup(ctx context.Context, cfg Config, frontier bool) (context.Context, Config, error) {
	cfg = cfg.withDefaults()
	if frontier && cfg.Objectives == 0 {
		cfg.Objectives = pareto.DefaultObjectives
	}
	if err := cfg.Validate(); err != nil {
		return nil, cfg, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Reuse == nil {
		cfg.Reuse = NewReuse()
	}
	return ctx, cfg, nil
}

// passFunc runs one pass of the enumeration through fold: exploreCore over
// the whole combination source on this node, or a sharded pass (the shards,
// then an exploreCore pass that takes their records as hints). exploreCore
// is the local pass.
type passFunc func(ctx context.Context, g *taskgraph.Graph, p *arch.Platform, mapper MapperFunc,
	cfg Config, fold streamFold, opts coreOptions) (prunedCount int, err error)

// exploreScalar is the scalar driver behind ExploreContext and
// ExploreSharded: it seeds the fold's dominance threshold under
// branch-and-bound (Ranked), runs one pass, and takes the
// all-infeasible fallback when nothing feasible was found or the fold holds
// no design (a seeded fold ends empty only when shard records claim the
// seed's combination probe-infeasible).
func exploreScalar(ctx context.Context, g *taskgraph.Graph, p *arch.Platform,
	mapper MapperFunc, cfg Config, run passFunc) (*Design, error) {
	strategy := cfg.Strategy.withDefault()
	prune := strategy != StrategyExhaustive
	fold := newScalarFold(prune, cfg.Telemetry)
	if prune && strategy == StrategyBranchAndBound && cfg.Ranked {
		nominal, seeded, err := probeRankedStream(ctx, g, p, cfg)
		if err != nil {
			return nil, err
		}
		if seeded {
			fold.seed(nominal)
		}
	}
	prunedCount, err := run(ctx, g, p, mapper, cfg, fold, coreOptions{
		computeBounds: prune && cfg.DeadlineSec > 0,
		prune:         prune,
	})
	if err != nil {
		return nil, err
	}
	if fold.best == nil || (prunedCount > 0 && !fold.best.Eval.MeetsDeadline) {
		return leastInfeasible(ctx, g, p, mapper, cfg, run)
	}
	return fold.best, nil
}

// explorePareto is the Pareto driver behind ExploreParetoContext and
// ExploreShardedPareto: it runs one pass through the frontier fold and,
// when no deadline-feasible design exists, returns the scalar degenerate
// verdict as a single-entry frontier.
func explorePareto(ctx context.Context, g *taskgraph.Graph, p *arch.Platform,
	mapper MapperFunc, cfg Config, run passFunc) ([]*Design, error) {
	prune := cfg.Strategy.withDefault() != StrategyExhaustive
	fold, err := newParetoFold(cfg)
	if err != nil {
		return nil, err
	}
	// T_M lower bounds feed both deadline pruning and the frontier's
	// bound-dominance test, so the Pareto fold takes them under every
	// strategy (the exhaustive reference ignores them).
	prunedCount, err := run(ctx, g, p, mapper, cfg, fold, coreOptions{computeBounds: true, prune: prune})
	if err != nil {
		return nil, err
	}
	if frontier := fold.frontier(); len(frontier) > 0 {
		return frontier, nil
	}
	// No deadline-feasible design exists (bound-pruned combinations are
	// provably infeasible, so they cannot change that). When every
	// combination was resolved — no skip can fire against an empty frontier
	// — the embedded scalar fold already walked the exhaustive acceptance
	// sequence.
	if prunedCount == 0 {
		return []*Design{fold.scalar.best}, nil
	}
	best, err := leastInfeasible(ctx, g, p, mapper, cfg, run)
	if err != nil {
		return nil, err
	}
	return []*Design{best}, nil
}

// leastInfeasible is the degenerate all-infeasible verdict of both drivers.
// Nothing feasible was found and bound-pruned combinations were never
// mapped, so the exhaustive "least infeasible" verdict (minimum nominal
// power among the designs the mapper actually produced) may live inside the
// pruned set. It re-runs the same visit sequence without pruning —
// deterministically — so the returned Design matches StrategyExhaustive
// byte for byte. Progress was already emitted by the first pass and is not
// replayed.
func leastInfeasible(ctx context.Context, g *taskgraph.Graph, p *arch.Platform,
	mapper MapperFunc, cfg Config, run passFunc) (*Design, error) {
	cfg.Progress = nil
	fold := newScalarFold(false, cfg.Telemetry)
	if _, err := run(ctx, g, p, mapper, cfg, fold, coreOptions{}); err != nil {
		return nil, err
	}
	return fold.best, nil
}

// outcome is one resolved combination on its way from a claim (and, when
// it needs the mapper, a worker) into the ordered reduction.
type outcome struct {
	pos        int   // visit position (fold order)
	idx        int   // stable Fig. 5 enumeration index
	scaling    []int // borrowed (a reorder ring slot's slab): valid until pos folds
	nominal    float64
	tmLB       float64 // admissible T_M lower bound (zero unless computed)
	pruned     bool    // bound-proved infeasible; mapper never ran
	skipCand   bool    // resolved without a design as irrelevant (fold confirms)
	design     *Design
	probed     bool // probe verdict: a feasible mapping exists at this scaling
	probeKnown bool // the probe actually ran (false for claim-time skips)
	err        error
}

// streamFold is the step-3 reduction plugged into the shared streaming core.
// The scalar single-best fold and the Pareto non-dominated fold both
// implement it. The stream's lock orders every call but one:
// mapperSkippable is what workers read mid-combination, outside the lock.
//
// Every external bound reaches the scalar fold through its monotone
// dominance threshold as a seed: the ranked pass's, or on a shard the
// coordinator's threshold; the Pareto fold prunes against its own realized
// frontier only. dispatchSkip and confirmSkip read that same state, so
// every claim-time skip stays reproducible at fold time.
type streamFold interface {
	// dispatchSkip is the claim-time pre-mapper dominance test. It must be
	// monotone with respect to the fold's state: once true for an outcome,
	// confirmSkip must reproduce the verdict at fold time.
	dispatchSkip(o *outcome) bool
	// mapperSkippable reports whether a probe-infeasible combination's
	// mapper run is provably irrelevant to the fold's result, so the worker
	// may skip it after the probe. Like dispatchSkip it must be monotone:
	// once true, confirmSkip must reproduce the verdict for any
	// probe-infeasible outcome folded later.
	mapperSkippable() bool
	// confirmSkip is the authoritative fold-time dominance verdict.
	confirmSkip(o *outcome) bool
	// fold consumes one resolved (neither pruned nor skipped) design.
	fold(o *outcome)
	// annotate fills the fold-specific Progress fields (Best, FrontierSize,
	// Admitted) after the outcome's verdict has been applied.
	annotate(ev *Progress)
}

// dominatedNominal mirrors betterDesign's nominal-power tolerance: true when
// nominal is strictly worse than bestNominal beyond the relative band, i.e.
// the combination can lose on power but never tie into the Γ tie-break.
func dominatedNominal(nominal, bestNominal float64) bool {
	const rel = 1e-9
	return nominal-bestNominal > rel*(nominal+bestNominal)
}

// scalarFold is the classic step-3 acceptance walk: keep the single
// deadline-meeting design with minimum nominal power, tie-broken by Γ and
// measured power, with a dominance threshold driving branch-and-bound skips.
//
// The threshold is the *minimum* nominal power of any probed-feasible design
// the fold has accepted or been seeded with — strictly monotone
// non-increasing, even when the incumbent drifts within the nominal-power
// tolerance band to a numerically higher value on a Γ tie-break. That
// monotonicity is what makes every claim-time skip reproducible by the
// fold-time rule: a combination dominated against an older
// (larger-or-equal) threshold is dominated against every later one.
type scalarFold struct {
	prune bool
	tel   *Telemetry // incumbent/bound event sink; nil when detached

	threshold float64 // the dominance threshold, once probed is set
	// probed reports that a threshold stands. Monotone: once set, always
	// set. It is the one field workers read outside the stream's lock.
	probed atomic.Bool

	best        *Design
	bestNominal float64 // the incumbent's own nominal (acceptance rule)
	bestProbed  bool
}

func newScalarFold(prune bool, tel *Telemetry) *scalarFold {
	return &scalarFold{prune: prune, tel: tel}
}

// lower lowers the dominance threshold to a probed-feasible nominal. It
// reports whether the threshold moved: a nominal at or above it (a
// within-tolerance Γ tie-break winner) leaves it untouched.
func (s *scalarFold) lower(nominal float64) bool {
	if s.probed.Load() && nominal >= s.threshold {
		return false
	}
	s.threshold = nominal
	s.probed.Store(true)
	return true
}

// seed pre-publishes a realizable probed-feasible nominal as the dominance
// threshold before any combination has folded. The nominal must be that of
// an actual probe-feasible combination of the stream (the ranked pass's
// first hit), so every beyond-band skip it causes discards a provably
// non-winning combination.
func (s *scalarFold) seed(nominal float64) {
	s.lower(nominal)
	if s.tel != nil {
		s.tel.event(EventBound, -1, -1, nominal, 0)
	}
}

func (s *scalarFold) dispatchSkip(o *outcome) bool {
	return s.prune && s.probed.Load() && dominatedNominal(o.nominal, s.threshold)
}

// mapperSkippable: once any probed-feasible incumbent stands (folded or
// seeded), a probe-infeasible combination can never displace it — the
// acceptance walk prefers probed designs outright — so its mapper run is
// irrelevant to the scalar verdict. probed is monotone, so confirmSkip
// reproduces every worker-time verdict.
func (s *scalarFold) mapperSkippable() bool {
	return s.prune && s.probed.Load()
}

// confirmSkip applies the authoritative branch-and-bound verdict. The
// dominance threshold is monotone non-increasing, unlike the incumbent's own
// nominal, which can drift upward within the tolerance band on Γ
// tie-breaks, and only the fold moves it once the walk starts, so the
// verdict is a pure function of the fold state. The second branch mirrors
// mapperSkippable: with a probed incumbent standing, a probe-infeasible
// combination is irrelevant whether or not its mapper happened to run.
func (s *scalarFold) confirmSkip(o *outcome) bool {
	return s.dispatchSkip(o) || (o.probeKnown && !o.probed && s.mapperSkippable())
}

func (s *scalarFold) fold(o *outcome) {
	better := false
	switch {
	case s.best == nil:
		better = true
	case o.probed != s.bestProbed:
		better = o.probed
	default:
		better = betterDesign(o.design.Eval, o.nominal, s.best.Eval, s.bestNominal)
	}
	if !better {
		return
	}
	s.best = o.design
	s.bestNominal = o.nominal
	s.bestProbed = o.probed
	tightened := o.probed && s.lower(o.nominal)
	if s.tel != nil {
		s.tel.event(EventIncumbent, o.pos, o.idx, o.nominal, 0)
		if tightened {
			s.tel.event(EventBound, o.pos, o.idx, o.nominal, 0)
		}
	}
}

func (s *scalarFold) annotate(ev *Progress) { ev.Best = s.best }

// paretoFold folds feasible resolved combinations into a streaming
// non-dominated frontier over the configured objectives. Dominance skipping
// tests a combination's admissible objective lower bound — exact nominal
// power, the metrics.Bounds T_M lower bound, zero Γ — against the frontier
// folded so far: a strictly dominated bound proves the realized vector is
// dominated too, and pareto.Fold's eviction discipline keeps the verdict
// monotone, so claim-time skips are always reproducible at fold time.
// Only the run's own frontier prunes: with Γ active no realized vector
// (Γ > 0 at any nonzero SER) dominates a bound's zero Γ, so points from
// outside the run could prune little beyond single-objective power or
// makespan runs.
type paretoFold struct {
	deadlineSec float64

	// scalar mirrors the step-3 acceptance walk over every resolved
	// design, so the all-infeasible degenerate verdict is available
	// without a second pass whenever no combination was bound-pruned.
	scalar *scalarFold

	tel *Telemetry // admission event sink; nil when detached

	fold_    *pareto.Fold[*Design]
	admitted bool // whether annotate's outcome joined the frontier
}

// newParetoFold builds the frontier fold over cfg's objectives.
func newParetoFold(cfg Config) (*paretoFold, error) {
	f, err := pareto.NewFold[*Design](cfg.Objectives)
	if err != nil {
		return nil, err
	}
	// The embedded scalar fold tracks only the degenerate all-infeasible
	// verdict; it stays detached from telemetry so its internal acceptance
	// walk does not masquerade as incumbent events in a Pareto run.
	return &paretoFold{
		deadlineSec: cfg.DeadlineSec,
		scalar:      newScalarFold(false, nil),
		tel:         cfg.Telemetry,
		fold_:       f,
	}, nil
}

// dispatchSkip tests the combination's admissible objective lower bound: no
// mapping at this scaling can realize a vector below it in any component
// (the Γ lower bound is zero).
func (p *paretoFold) dispatchSkip(o *outcome) bool {
	return p.fold_.DominatedBound(pareto.Vector{Power: o.nominal, Makespan: o.tmLB})
}

// mapperSkippable: never. The frontier admits any deadline-feasible realized
// design, and the mapper can find feasibility the probe's hill climb missed,
// so a probe-infeasible combination's mapper run still matters here.
func (p *paretoFold) mapperSkippable() bool { return false }

func (p *paretoFold) confirmSkip(o *outcome) bool { return p.dispatchSkip(o) }

func (p *paretoFold) fold(o *outcome) {
	p.scalar.fold(o)
	ev := o.design.Eval
	if p.deadlineSec > 0 && !ev.MeetsDeadline {
		p.admitted = false
		return // only deadline-feasible designs trade off on the frontier
	}
	v := pareto.Vector{Power: o.nominal, Makespan: ev.TMSeconds, Gamma: ev.Gamma}
	p.admitted = p.fold_.Offer(v, o.idx, o.design)
	if p.admitted && p.tel != nil {
		p.tel.event(EventAdmitted, o.pos, o.idx, o.nominal, p.fold_.Size())
	}
}

func (p *paretoFold) annotate(ev *Progress) {
	ev.FrontierSize = p.fold_.Size()
	ev.Admitted = p.admitted
	p.admitted = false
	if min, ok := p.fold_.Min(); ok {
		ev.Best = min.Value // the frontier's canonical-order minimum
	}
}

// frontier returns the fold's ordered result.
func (p *paretoFold) frontier() []*Design {
	entries := p.fold_.Entries()
	out := make([]*Design, len(entries))
	for i, e := range entries {
		out[i] = e.Value
	}
	return out
}

// comboSource streams the strategy's combinations over the platform's
// scaling space — the Fig. 5 enumeration for homogeneous platforms, the
// mixed-radix per-core generalization for heterogeneous ones. The scaling
// view handed out by next is BORROWED: valid only until the following next
// call (a claim copies it into its reorder ring slot's slab). Both walks are
// bit-identical to the legacy homogeneous stream on homogeneous platforms,
// so combination indices (and with them mapper seeds and cache identities)
// are stable across the generalization.
type comboSource struct {
	size int
	next func() (scaling []int, idx int, ok bool)
}

func newComboSource(p *arch.Platform, cfg Config, strategy Strategy) (*comboSource, error) {
	space, err := vscale.PlatformSpace(p)
	if err != nil {
		return nil, err
	}
	if strategy == StrategySampled {
		budget := cfg.SampleBudget
		if budget == 0 {
			budget = DefaultSampleBudget
		}
		fr, err := space.SampledFrontier(budget, cfg.Seed)
		if err != nil {
			return nil, err
		}
		return &comboSource{
			size: fr.Size(),
			next: func() ([]int, int, bool) {
				c, ok := fr.Next()
				if !ok {
					return nil, 0, false
				}
				return c.Scaling, c.Index, true
			},
		}, nil
	}
	it := space.Iter()
	return &comboSource{size: space.Count(), next: it.Next}, nil
}

// probeRankedStream is the ranked pass of Config.Ranked, the scalar fold's
// incumbent-seeding pass. It walks the combination space in ascending
// nominal power (vscale.RankedFrontier over the per-level f·V² terms) as one
// claim stream shared by up to Config.Parallelism long-lived workers, the
// calling goroutine included (0 selects GOMAXPROCS; never more than the
// space holds). A worker claims the next surviving candidate — it advances
// the walk and the bounds cursor and drops bound-infeasible combinations,
// exactly as the stream's claims prune them, all under one mutex — probes
// it, records the verdict and claims again, so no worker ever waits for
// another worker's climb. Once a
// feasible verdict or an error is recorded, or ctx is cancelled, nothing
// more is claimed, and the pass returns after every claimed probe has
// finished. At Parallelism 1 the stream is exactly the serial walk.
//
// Claims form a prefix of the walk, so the lowest-ranked feasible claim is
// the serial walk's answer at any Parallelism: the walk's first
// probe-feasible combination, whose nominal power is, by the walk order, the
// minimum nominal of any probe-feasible combination. That value pre-seeds
// the branch-and-bound dominance threshold, so the lexicographic stream
// skips beyond-band combinations from its very first position instead of
// waiting for the incumbent to stream by. The pass only trusts this run's
// own probe verdicts, so seeding is sound: the Design stays byte-identical
// to a cold, unseeded run, and only the Pruned/Skipped split of Progress may
// differ. ok is false when nothing probe-feasible exists; the stream then
// runs unseeded and the usual degenerate fallback applies.
//
// The one cost is surplus probes: besides the serial walk's candidates, the
// pass probes every candidate claimed after the answer but before its
// verdict was recorded. How many that is depends on timing; each was
// claimed while the answer's own climb ran, at most workers−1 are still in
// flight when it lands, and the pass then waits at most one climb for them.
// No probe is cancelled: through the ProbeCache a verdict is a pure function
// of (combination, seed, deadline), so a surplus probe only adds a cache
// entry, which the main stream reuses — cancelled, its climb would be
// resumed by the main stream instead. Cancelling ctx stops every climb and
// leaves its cache entry resumable. Each probe is recorded as a "rank"
// WorkerSpan on its worker's telemetry row, from its claim to its verdict.
func probeRankedStream(ctx context.Context, g *taskgraph.Graph, p *arch.Platform, cfg Config) (nominal float64, ok bool, err error) {
	tel := cfg.Telemetry
	if tel != nil {
		start := tel.now()
		defer func() { tel.addRanked(tel.now() - start) }()
	}
	space, err := vscale.PlatformSpace(p)
	if err != nil {
		return 0, false, err
	}
	cores := p.Cores()
	class := p.SymmetryClasses()
	weight := make([][]float64, cores)
	cols := make(map[int][]float64)
	for c := 0; c < cores; c++ {
		col, have := cols[class[c]]
		if !have {
			levels := p.CoreNumLevels(c)
			col = make([]float64, levels)
			for s := 1; s <= levels; s++ {
				l := p.MustCoreLevel(c, s)
				col[s-1] = l.FreqHz() * l.Vdd * l.Vdd
			}
			cols[class[c]] = col
		}
		weight[c] = col
	}
	fr, err := space.RankedFrontier(weight)
	if err != nil {
		return 0, false, fmt.Errorf("mapping: ranked incumbent seeding: %w", err)
	}

	workers := poolSize(cfg.Parallelism, space.Count())
	if tel != nil {
		// Rows must exist before any worker records on its own.
		tel.growWorkers(workers)
	}

	// The claim stream: verdicts holds one entry per claim, in ranked order
	// (the nominal power the bounds cursor gave the candidate and, once its
	// probe has run, the verdict); stop ends the claims; walkErr is why the
	// walk itself stopped early, ranked after every claim.
	type verdict struct {
		nominal  float64
		feasible bool
		err      error
	}
	cursor := cfg.Reuse.boundsFor(g, p, cfg.Iterations).Cursor()
	var (
		mu       sync.Mutex
		verdicts []verdict
		stop     bool
		walkErr  error
	)
	// claim takes the next surviving candidate, or reports that claims are
	// over. at is the claim time, the start of the probe's rank span.
	claim := func() (rank int, combo vscale.Combo, at int64, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		for !stop {
			c, more := fr.Next()
			if !more {
				break
			}
			if walkErr = ctx.Err(); walkErr != nil {
				break
			}
			if _, walkErr = cursor.Advance(c.Scaling); walkErr != nil {
				break
			}
			if cfg.DeadlineSec > 0 && cursor.TMLowerBound() > cfg.DeadlineSec*(1+1e-9) {
				continue // provably infeasible; the stream will bound-prune it too
			}
			verdicts = append(verdicts, verdict{nominal: cursor.NominalPower()})
			if tel != nil {
				at = tel.now()
			}
			return len(verdicts) - 1, c, at, true
		}
		stop = true
		return 0, vscale.Combo{}, 0, false
	}
	// record files a claim's verdict; a feasible one or an error ends the
	// claims. at is the record time, the end of the probe's rank span.
	record := func(rank int, feasible bool, err error) (at int64) {
		mu.Lock()
		defer mu.Unlock()
		if tel != nil {
			at = tel.now()
		}
		verdicts[rank].feasible, verdicts[rank].err = feasible, err
		stop = stop || feasible || err != nil
		return at
	}

	runWorkers(workers, func(w int) {
		// A build error is the verdict of the worker's first claim.
		wk, err := newComboWorker(g, p, cfg)
		if err == nil {
			defer wk.close(tel)
		}
		for {
			rank, c, start, ok := claim()
			if !ok {
				return
			}
			var feasible bool
			if err == nil {
				err = wk.mc.bind(ctx, c.Scaling, c.Index, cfg.Seed)
			}
			if err == nil {
				var t0 int64
				if tel != nil {
					t0 = tel.now()
				}
				var hit bool
				_, feasible, hit, err = cfg.Reuse.probe.feasibleAtScaling(wk.mc, c.Index, cfg)
				if tel != nil {
					tel.observeProbe(tel.now()-t0, hit)
				}
			}
			end := record(rank, feasible, err)
			if tel != nil {
				tel.workerSpan(w, start, end, c.Index, "rank")
			}
		}
	})
	for _, v := range verdicts {
		if v.err != nil {
			return 0, false, v.err
		}
		if v.feasible {
			return v.nominal, true, nil
		}
	}
	return 0, false, walkErr
}

// poolSize is the worker count of a pass over n combinations: parallelism
// workers (0 selects GOMAXPROCS), never more than n and at least one.
func poolSize(parallelism, n int) int {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return max(min(parallelism, n), 1)
}

// runWorkers runs work on workers 0..n-1, worker 0 on the calling goroutine,
// and returns once every worker has.
func runWorkers(n int, work func(w int)) {
	var wg sync.WaitGroup
	for w := 1; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}

// comboWorker is one engine worker's private state: an evaluator borrowed
// from the Reuse bundle's pool and a MapContext with its probe scratch,
// reused across every combination the worker handles. Build it on the
// goroutine that runs it: built back to back on one goroutine, workers end
// up side by side in memory and then false-share the schedulers' small
// per-core buffers.
type comboWorker struct {
	mc      *MapContext
	release func()
	base    metrics.EvalStats // evaluator counters at acquisition
}

func newComboWorker(g *taskgraph.Graph, p *arch.Platform, cfg Config) (*comboWorker, error) {
	eval, err := cfg.Reuse.evaluator(g, p, cfg)
	if err != nil {
		return nil, err
	}
	return &comboWorker{
		mc:      &MapContext{Graph: g, Platform: p, Eval: eval, scratch: newComboScratch(g.N(), p.Cores())},
		release: func() { cfg.Reuse.release(eval, cfg) },
		base:    eval.Stats(),
	}, nil
}

// close returns the worker's evaluator to the pool. Pooled evaluators carry
// counters across borrowers, so only this worker's delta goes to telemetry.
func (wk *comboWorker) close(tel *Telemetry) {
	if tel != nil {
		tel.addEvalStats(wk.mc.Eval.Stats().Sub(wk.base))
	}
	wk.release()
}

// coreOptions tunes the shared streaming core.
type coreOptions struct {
	// computeBounds attaches an admissible T_M lower bound to every outcome
	// (the Pareto fold consumes it even when pruning is off). Nominal power
	// is histogram-derived under every option set.
	computeBounds bool
	// prune enables the branch-and-bound verdicts: deadline-bound pruning
	// (when a deadline is set) and fold-dominance skipping.
	prune bool
	// source, when non-nil, replaces the strategy-derived combination
	// source — the shard worker uses it to restrict the walk to a
	// contiguous rank range while keeping every stable enumeration index.
	source *comboSource
	// records, when non-nil, receives one ShardRecord per visit position
	// (nil for bound-pruned positions): the shard worker's record stream.
	records []*ShardRecord
	// hints, when non-nil, holds the shards' records by stable enumeration
	// index: the coordinator's merge pass. A hint's probe verdict stands in
	// for the probe and its mapping for the mapper (exploreCombo), and a
	// position its shard resolved without a design is decided at the fold
	// head (exploreCore's claim).
	hints []*ShardRecord
}

// hint returns the shard record of combination idx, nil outside the merge.
func (o coreOptions) hint(idx int) *ShardRecord {
	if o.hints == nil {
		return nil
	}
	return o.hints[idx]
}

// exploreCore is the streaming work loop shared by every strategy and fold,
// on the ranked pass's claim protocol: up to Config.Parallelism workers,
// worker 0 on the calling goroutine, claim visit positions under one mutex,
// map outside it, and file each outcome back under it, where every complete
// prefix folds in visit order (the deterministic ordered reduction). A claim
// advances the combination source and the bounds cursor and, with
// opts.prune set, resolves bound-prunes and dispatch-skips on the spot, so
// only combinations that need the mapper leave the lock. The fold is
// current at every claim, so a claim-time skip test sees every incumbent
// folded so far, and the reduction re-applies the branch-and-bound rules
// authoritatively at fold time, so the pruned and skipped markers — like
// everything else in the event stream — are a pure function of the
// configuration. At Parallelism 1 each position folds before the next is
// claimed, so the work done (mapper runs, probes) is one too.
//
// Claims stay fewer than window positions ahead of the fold, so the reorder
// ring holds at most window outcomes, by value, each slot with its own
// scaling slab, and the Progress event struct is reused across callbacks
// (hence the borrowed-event contract on Progress). Nominal power and the
// T_M lower bound are maintained by a metrics.Cursor, so a claim's bound
// work is O(changed coefficients) — and because both are pure functions of
// the level histogram, every strategy (exhaustive, branch-and-bound,
// sampled, ranked-seeded) sees bit-identical values for the same
// combination. An error or a cancelled ctx stops the claims, an error also
// cancels every worker's context to abort the combinations still being
// mapped, and the call returns once every claimed combination has finished.
//
// Every resolved position counts toward the pruned total, records its
// telemetry verdict and, in a shard, its ShardRecord, folds when neither
// pruned nor skipped, and reaches the Progress callback through the one
// event reused across every callback.
func exploreCore(ctx context.Context, g *taskgraph.Graph, p *arch.Platform,
	mapper MapperFunc, cfg Config, fold streamFold, opts coreOptions) (prunedCount int, err error) {
	strategy := cfg.Strategy.withDefault()
	src := opts.source
	if src == nil {
		if src, err = newComboSource(p, cfg, strategy); err != nil {
			return 0, err
		}
	}
	total := src.size
	workers := poolSize(cfg.Parallelism, total)
	window := min(max(4*workers, 16), total)
	cores := p.Cores()
	tel := cfg.Telemetry
	var t0 int64
	if tel != nil {
		tel.beginPass(strategy, workers, workers)
		t0 = tel.now()
	}
	cursor := cfg.Reuse.boundsFor(g, p, cfg.Iterations).Cursor()
	if tel != nil {
		tel.addBounds(tel.now() - t0)
	}

	// Each worker maps under a context of its own, so the probe's and the
	// mappers' per-move polls never contend across workers; the first
	// failure cancels them all, so the combinations still being mapped
	// abort instead of running to their end.
	wctx := make([]context.Context, workers)
	cancels := make([]context.CancelFunc, workers)
	for w := range wctx {
		wctx[w], cancels[w] = context.WithCancel(ctx)
	}
	cancel := func() {
		for _, c := range cancels {
			c()
		}
	}
	defer cancel()
	// The stream's state, all under mu: ring and filed are the reorder
	// ring, claimed and folded count positions, stop ends the claims, and
	// firstErr is the lowest-positioned failure.
	var (
		mu        sync.Mutex
		foldMoved = sync.NewCond(&mu)
		ring      = make([]outcome, window)
		filed     = make([]bool, window)
		slabs     = make([]int, window*cores)
		claimed   int
		folded    int
		stop      bool
		firstErr  error
		errPos    = total
		pruned    int
		ev        Progress
	)
	fail := func(pos int, err error) {
		// Combinations aborted by cancel report context.Canceled; the
		// failure that cancelled them is the verdict.
		if !errors.Is(err, context.Canceled) && pos < errPos {
			firstErr, errPos = err, pos
		}
		stop = true
		cancel()
		foldMoved.Broadcast()
	}
	// file stores a finished position and folds every complete prefix.
	file := func(o *outcome) {
		if o.err != nil {
			fail(o.pos, o.err)
			return
		}
		ring[o.pos%window], filed[o.pos%window] = *o, true
		for folded < total && filed[folded%window] {
			var ft0 int64
			if tel != nil {
				ft0 = tel.now()
			}
			d := &ring[folded%window]
			filed[folded%window] = false
			// Authoritative branch-and-bound verdict, decided on the
			// deterministic fold state alone.
			skipped := opts.prune && !d.pruned && fold.confirmSkip(d)
			if d.skipCand && !skipped && !d.pruned {
				// A claim-time skip the fold cannot reproduce would break
				// determinism; by the fold's monotonicity this is
				// unreachable, so fail loudly rather than silently diverge.
				fail(folded, fmt.Errorf("mapping: internal error: combination %d skipped against a weaker incumbent", d.idx))
				break
			}
			kind := ""
			var design *Design
			switch {
			case d.pruned:
				kind = EventPruned
				pruned++
			case skipped:
				kind = EventSkipped
			default:
				design = d.design
			}
			if tel != nil {
				tel.comboVerdict(kind, folded, d.idx, d.nominal)
			}
			if opts.records != nil && !d.pruned {
				// A skipped position whose mapper ran keeps its mapping, so
				// a coordinator whose tolerance band disagrees evaluates it
				// instead of re-mapping.
				rec := &ShardRecord{Idx: d.idx, Probed: d.probed, ProbeKnown: d.probeKnown}
				if d.design != nil {
					rec.Mapping = append([]int(nil), d.design.Mapping...)
				}
				opts.records[folded] = rec
			}
			scaling := d.scaling
			if design != nil {
				fold.fold(d)
				scaling = design.Scaling
			}
			if cfg.Progress != nil {
				ev = Progress{Index: folded, Total: total, Combination: d.idx, Scaling: scaling,
					Pruned: d.pruned, Skipped: skipped, Design: design}
				fold.annotate(&ev)
				cfg.Progress(ev)
			}
			d.design = nil
			if tel != nil {
				tel.addFold(tel.now() - ft0)
			}
			folded++
		}
		foldMoved.Broadcast()
	}
	// claim takes the next position that needs the mapper, filing the ones
	// it resolves itself, or reports that claims are over.
	claim := func() (outcome, bool) {
		for !stop && claimed < total {
			if claimed-folded >= window {
				foldMoved.Wait()
				continue
			}
			if ctx.Err() != nil {
				stop = true
				break
			}
			var et0 int64
			if tel != nil {
				et0 = tel.now()
			}
			scaling, idx, more := src.next()
			if !more {
				fail(claimed, fmt.Errorf("mapping: internal error: combination source ended after %d of %d", claimed, total))
				break
			}
			slot := claimed % window
			o := outcome{pos: claimed, idx: idx, scaling: slabs[slot*cores : (slot+1)*cores]}
			claimed++
			if _, o.err = cursor.Advance(scaling); o.err != nil {
				file(&o)
				break
			}
			copy(o.scaling, scaling)
			o.nominal = cursor.NominalPower()
			if opts.computeBounds {
				o.tmLB = cursor.TMLowerBound()
				// Prune only beyond a safety band: the bound is exact
				// mathematics but inexact floats.
				o.pruned = opts.prune && cfg.DeadlineSec > 0 && o.tmLB > cfg.DeadlineSec*(1+1e-9)
			}
			o.skipCand = !o.pruned && opts.prune && fold.dispatchSkip(&o)
			if tel != nil {
				tel.addEnum(tel.now() - et0)
			}
			if h := opts.hint(idx); h != nil && h.Mapping == nil && opts.prune && !o.pruned && !o.skipCand {
				// The shard resolved this position without a design. An
				// honest shard's verdict reproduces once every earlier
				// position has folded, so decide it at the fold head rather
				// than map what the fold is about to skip.
				for !stop && folded < o.pos {
					foldMoved.Wait()
				}
				if stop {
					break
				}
				o.probed, o.probeKnown = h.Probed, h.ProbeKnown
				o.skipCand = fold.confirmSkip(&o)
			}
			if !o.pruned && !o.skipCand {
				return o, true
			}
			file(&o)
		}
		return outcome{}, false
	}

	runWorkers(workers, func(w int) {
		wk, wkErr := newComboWorker(g, p, cfg)
		if wkErr == nil {
			defer wk.close(tel)
		}
		skippable := fold.mapperSkippable
		mu.Lock()
		defer mu.Unlock()
		for {
			o, ok := claim()
			if !ok {
				return
			}
			mu.Unlock()
			if o.err = wkErr; o.err == nil {
				var start int64
				if tel != nil {
					start = tel.now()
				}
				o.probeKnown = true
				o.design, o.probed, o.skipCand, o.err = exploreCombo(wctx[w], wk.mc, mapper, o.scaling, o.idx, cfg, skippable, opts.hint(o.idx))
				if tel != nil {
					kind := "map"
					if o.skipCand {
						kind = "skip"
					}
					tel.workerSpan(w, start, tel.now(), o.idx, kind)
				}
			}
			mu.Lock()
			file(&o)
		}
	})
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if firstErr != nil {
		return 0, firstErr
	}
	if folded != total {
		// Only a mapper that reports cancellation unprompted gets here.
		return 0, context.Canceled
	}
	return pruned, nil
}

// exploreCombo runs one scaling combination on a worker's reused MapContext:
// the shared feasibility probe, the mapper and the deadline assessment. The
// context's per-combination fields (Ctx, Scaling, Seed) are rebound here by
// MapContext.bind; mappers must not retain mc or its fields past their call.
//
// The probe runs first: besides fixing step 1's mapper-independent
// feasibility verdict, a probe-infeasible result can prove the whole mapper
// run irrelevant — when skippable (the fold's mapperSkippable; nil for
// never) holds, a probe-infeasible combination can never influence the
// fold, so the mapper is skipped and the combination resolves as a skip
// candidate (skipped true, design nil).
// The probe itself is cached by combination index, so reordering it ahead
// of the mapper changes no verdict, only how often the mapper runs.
//
// In the coordinator's merge, hint is the shard's record of the combination
// (nil elsewhere): its probe verdict, when known, stands in for the probe
// and its mapping for the mapper. The mapping is evaluated here, and probed
// derives from that evaluation as it does for the mapper's designs.
func exploreCombo(ctx context.Context, mc *MapContext, mapper MapperFunc,
	scaling []int, idx int, cfg Config, skippable func() bool, hint *ShardRecord) (d *Design, probed, skipped bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, false, err
	}
	if err := mc.bind(ctx, scaling, idx, cfg.Seed); err != nil {
		return nil, false, false, err
	}
	// Step 1's feasibility decision is mapper-independent: a common
	// deadline probe decides which scalings are candidates, so every
	// experiment (Exp:1-4) selects its design from the same scaling
	// set and differences between them come from mapping alone. If the
	// probe proves feasibility that the experiment's own mapper missed,
	// the probe's mapping is the design at this scaling.
	tel := cfg.Telemetry
	var t0 int64
	var probeEv *metrics.Evaluation
	probedFeasible := false
	if hint != nil && hint.ProbeKnown {
		probedFeasible = hint.Probed
	} else {
		if tel != nil {
			t0 = tel.now()
		}
		var probeHit bool
		probeEv, probedFeasible, probeHit, err = cfg.Reuse.probe.feasibleAtScaling(mc, idx, cfg)
		if tel != nil {
			tel.observeProbe(tel.now()-t0, probeHit)
		}
		if err != nil {
			return nil, false, false, err
		}
	}
	if !probedFeasible && skippable != nil && skippable() {
		if tel != nil {
			tel.mapperSpared()
		}
		return nil, false, true, nil
	}
	var m sched.Mapping
	var ev *metrics.Evaluation
	if hint != nil && hint.Mapping != nil {
		if ev, err = mc.Eval.Evaluate(sched.Mapping(hint.Mapping)); err != nil {
			return nil, false, false, err
		}
		ev, m = ev.Clone(), append(sched.Mapping(nil), hint.Mapping...)
	} else {
		if tel != nil {
			t0 = tel.now()
		}
		m, ev, err = mapper(mc)
		if tel != nil {
			tel.observeMapper(tel.now() - t0)
		}
		if err != nil {
			return nil, false, false, fmt.Errorf("mapping: scaling %v: %w", scaling, err)
		}
	}
	if probeEv != nil && !ev.MeetsDeadline {
		// Clone: the cache owns probeEv, and Explore calls sharing the
		// cache must not hand out aliased mutable Designs.
		ev = probeEv.Clone()
		m = ev.Schedule.Mapping
	}
	probed = probedFeasible && ev.MeetsDeadline
	d = &Design{Scaling: append([]int(nil), scaling...), Mapping: m, Eval: ev}
	return d, probed, false, nil
}

// bind points mc at combination idx: it binds the evaluator to scaling and
// sets Ctx, Scaling and the combination's stream seed, comboSeed(seed, idx).
// Every engine path that probes or maps a combination binds through here,
// so the ranked pass and the stream probe a combination under one seed.
func (mc *MapContext) bind(ctx context.Context, scaling []int, idx int, seed int64) error {
	if err := mc.Eval.Bind(scaling); err != nil {
		return err
	}
	mc.Ctx = ctx
	mc.Scaling = mc.Eval.Scaling()
	mc.Seed = comboSeed(seed, idx)
	return nil
}

// comboSeed derives the stream seed of combination i from the master seed
// (splitmix64 finalizer), decorrelating the combinations while keeping each
// one's stream a pure function of (seed, i). i is the combination's stable
// Fig. 5 enumeration index, so every strategy maps a given combination with
// the same stream.
func comboSeed(seed int64, i int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(i+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// betterDesign implements the step-3 acceptance order: feasibility first,
// then nominal scaling power, then Γ, then measured power.
func betterDesign(a *metrics.Evaluation, aNominal float64, b *metrics.Evaluation, bNominal float64) bool {
	if a.MeetsDeadline != b.MeetsDeadline {
		return a.MeetsDeadline
	}
	const rel = 1e-9
	if d := aNominal - bNominal; d < -rel*(aNominal+bNominal) {
		return true
	} else if d > rel*(aNominal+bNominal) {
		return false
	}
	if a.Gamma != b.Gamma {
		return a.Gamma < b.Gamma
	}
	return a.PowerW < b.PowerW
}

// comboScratch is the per-worker buffer set of the feasibility probe: the
// LPT seed mapping, the task order, per-core load/frequency accumulators and
// the hill climb's neighbor/load buffers, all reused across every
// combination a worker probes.
type comboScratch struct {
	order    []taskgraph.TaskID
	m        sched.Mapping
	neighbor sched.Mapping
	loadSec  []float64
	freq     []float64
	loads    []int
}

func newComboScratch(n, cores int) *comboScratch {
	return &comboScratch{
		order:    make([]taskgraph.TaskID, n),
		m:        make(sched.Mapping, n),
		neighbor: make(sched.Mapping, n),
		loadSec:  make([]float64, cores),
		freq:     make([]float64, cores),
		loads:    make([]int, cores),
	}
}

// The feasibility probe and its trajectory cache live in probe.go.
