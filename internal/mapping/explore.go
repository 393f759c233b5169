package mapping

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

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
	// skipped or cancelled, or its design discarded. Design is nil for
	// skipped combinations.
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
func Explore(g *taskgraph.Graph, p *arch.Platform, mapper MapperFunc, cfg Config) (best *Design, perScaling []*Design, err error) {
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
// — cancelling dominated in-flight work, and returns a byte-identical best
// Design; StrategySampled maps a budgeted
// random portfolio. With Config.Ranked, branch-and-bound first locates a
// feasible incumbent by walking combinations in ascending nominal power, so
// the dominance threshold is in force from the very first combination of
// the deterministic stream. The enumeration is never materialized:
// combinations stream through a bounded reorder window, so memory is
// O(workers), not O(combinations).
//
// perScaling lists one Design per visited combination in visit order, for
// the experiment harness; entries are nil for pruned/skipped combinations,
// and the whole list is omitted under Config.DiscardPerScaling. (The paper
// tables use StrategyExhaustive, where every entry is populated.)
//
// Combinations are independent, so they fan out over a bounded worker pool
// (Config.Parallelism workers; 0 selects GOMAXPROCS). Each worker owns one
// reusable metrics.Evaluator rebound per combination, and each combination
// derives its own seed from (Config.Seed, enumeration index), so the chosen
// best design, the perScaling order and every Progress callback are
// identical at any parallelism. Cancelling ctx stops the workers promptly
// and returns ctx.Err().
func ExploreContext(ctx context.Context, g *taskgraph.Graph, p *arch.Platform,
	mapper MapperFunc, cfg Config) (best *Design, perScaling []*Design, err error) {
	ctx, cfg, err = setup(ctx, cfg, false)
	if err != nil {
		return nil, nil, err
	}
	return exploreScalar(ctx, g, p, mapper, cfg, exploreCore)
}

// ExplorePareto runs the multi-objective design loop with background
// context; see ExploreParetoContext.
func ExplorePareto(g *taskgraph.Graph, p *arch.Platform, mapper MapperFunc, cfg Config) ([]*Design, error) {
	return ExploreParetoContext(context.Background(), g, p, mapper, cfg)
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
// then the replay of their records). exploreCore is the local pass.
type passFunc func(ctx context.Context, g *taskgraph.Graph, p *arch.Platform, mapper MapperFunc,
	cfg Config, fold streamFold, opts coreOptions) (perScaling []*Design, prunedCount int, err error)

// exploreScalar is the scalar driver behind ExploreContext and
// ExploreSharded: it seeds the fold's dominance threshold under
// branch-and-bound (Ranked), runs one pass, and takes the
// all-infeasible fallback when nothing feasible was found.
func exploreScalar(ctx context.Context, g *taskgraph.Graph, p *arch.Platform,
	mapper MapperFunc, cfg Config, run passFunc) (best *Design, perScaling []*Design, err error) {
	strategy := cfg.Strategy.withDefault()
	prune := strategy != StrategyExhaustive
	fold := newScalarFold(prune, cfg.Telemetry)
	if prune && strategy == StrategyBranchAndBound && cfg.Ranked {
		nominal, seeded, err := probeRankedStream(ctx, g, p, cfg)
		if err != nil {
			return nil, nil, err
		}
		if seeded {
			fold.seed(nominal)
		}
	}
	perScaling, prunedCount, err := run(ctx, g, p, mapper, cfg, fold, coreOptions{
		computeBounds: prune && cfg.DeadlineSec > 0,
		prune:         prune,
	})
	if err != nil {
		return nil, nil, err
	}
	if prunedCount > 0 && (fold.best == nil || !fold.best.Eval.MeetsDeadline) {
		return leastInfeasible(ctx, g, p, mapper, cfg, run)
	}
	return fold.best, perScaling, nil
}

// explorePareto is the Pareto driver behind ExploreParetoContext and
// ExploreShardedPareto: it runs one pass through the frontier fold and,
// when no deadline-feasible design exists, returns the scalar degenerate
// verdict as a single-entry frontier.
func explorePareto(ctx context.Context, g *taskgraph.Graph, p *arch.Platform,
	mapper MapperFunc, cfg Config, run passFunc) ([]*Design, error) {
	// The frontier owns per-combination Designs; never retain the full
	// per-combination list on top of it.
	cfg.DiscardPerScaling = true
	prune := cfg.Strategy.withDefault() != StrategyExhaustive
	fold, err := newParetoFold(cfg)
	if err != nil {
		return nil, err
	}
	// T_M lower bounds feed both deadline pruning and the frontier's
	// bound-dominance test, so the Pareto fold takes them under every
	// strategy (the exhaustive reference ignores them).
	_, prunedCount, err := run(ctx, g, p, mapper, cfg, fold, coreOptions{computeBounds: true, prune: prune})
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
	best, _, err := leastInfeasible(ctx, g, p, mapper, cfg, run)
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
	mapper MapperFunc, cfg Config, run passFunc) (best *Design, perScaling []*Design, err error) {
	cfg.Progress = nil
	fold := newScalarFold(false, cfg.Telemetry)
	perScaling, _, err = run(ctx, g, p, mapper, cfg, fold, coreOptions{})
	if err != nil {
		return nil, nil, err
	}
	return fold.best, perScaling, nil
}

// errDominated is the cancellation cause of in-flight mapper work made
// irrelevant by a resolved feasible incumbent with lower nominal power.
var errDominated = errors.New("mapping: combination dominated by resolved incumbent")

// outcome is one resolved combination flowing from the dispatcher/workers
// into the ordered reduction.
type outcome struct {
	pos        int   // visit position (fold order)
	idx        int   // stable Fig. 5 enumeration index
	scaling    []int // slab-pooled; released by the reduction
	nominal    float64
	tmLB       float64 // admissible T_M lower bound (zero unless computed)
	pruned     bool    // bound-proved infeasible; mapper never ran
	skipCand   bool    // mapper skipped/cancelled as irrelevant (fold confirms)
	design     *Design
	probed     bool // probe verdict: a feasible mapping exists at this scaling
	probeKnown bool // the probe actually ran (false for dispatch-time skips)
	err        error
}

// streamFold is the step-3 reduction plugged into the shared streaming core.
// The scalar single-best fold and the Pareto non-dominated fold both
// implement it. dispatchSkip, register and unregister may be called from the
// dispatcher and worker goroutines concurrently; confirmSkip, fold and
// annotate run only on the fold goroutine, in visit order.
//
// Every external bound reaches the scalar fold through its monotone
// incumbent board as a seed: the ranked pass's, or on a shard the
// coordinator's threshold; the Pareto fold prunes against its own realized
// frontier only. dispatchSkip and confirmSkip read that same state, so
// every dispatch-time skip stays reproducible at fold time.
type streamFold interface {
	// dispatchSkip is the opportunistic pre-mapper dominance test. It must
	// be monotone with respect to the fold's published state: once true for
	// an outcome, confirmSkip must reproduce the verdict at fold time.
	dispatchSkip(o *outcome) bool
	// register atomically re-checks dispatchSkip and, where the fold
	// supports dominance cancellation, makes the combination's in-flight
	// mapper work cancellable. It reports false when the combination should
	// be skipped without running the mapper.
	register(o *outcome, cancel context.CancelCauseFunc) bool
	// unregister retires a combination's cancellation handle.
	unregister(pos int)
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

// incumbentBoard holds the scalar reduction's monotone dominance threshold,
// read by the dispatcher, the workers and the fold alike, and tracks
// in-flight work so newly dominated combinations are cancelled promptly. The
// board holds the *minimum* nominal power of any probed-feasible design the
// fold has accepted or been seeded with — strictly monotone non-increasing,
// even when the fold's current incumbent drifts within the nominal-power
// tolerance band to a numerically higher value on a Γ tie-break. That
// monotonicity is what makes every opportunistic dispatch-time skip
// reproducible by the fold-time rule: a combination dominated against an
// older (larger-or-equal) threshold is dominated against every later one.
type incumbentBoard struct {
	mu       sync.Mutex
	probed   bool
	nominal  float64
	inflight map[int]inflightEntry
}

type inflightEntry struct {
	nominal float64
	cancel  context.CancelCauseFunc
}

func newIncumbentBoard() *incumbentBoard {
	return &incumbentBoard{inflight: make(map[int]inflightEntry)}
}

// dominatedNominal mirrors betterDesign's nominal-power tolerance: true when
// nominal is strictly worse than bestNominal beyond the relative band, i.e.
// the combination can lose on power but never tie into the Γ tie-break.
func dominatedNominal(nominal, bestNominal float64) bool {
	const rel = 1e-9
	return nominal-bestNominal > rel*(nominal+bestNominal)
}

// shouldSkip reports whether a combination with this nominal power is
// already provably dominated.
func (b *incumbentBoard) shouldSkip(nominal float64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.probed && dominatedNominal(nominal, b.nominal)
}

// hasProbed reports whether any probed-feasible nominal has been published
// (folded or seeded). Monotone: once true, always true.
func (b *incumbentBoard) hasProbed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.probed
}

// threshold returns the dominance threshold, and whether one stands.
func (b *incumbentBoard) threshold() (nominal float64, probed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.nominal, b.probed
}

// publish lowers the dominance threshold to a probed-feasible nominal and
// cancels newly dominated in-flight work (the early exit: outstanding
// higher-position combinations that can no longer win stop burning mapper
// budget). It reports whether the threshold moved: a nominal at or above it
// (a within-tolerance Γ tie-break winner) leaves it untouched.
func (b *incumbentBoard) publish(nominal float64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.probed && nominal >= b.nominal {
		return false
	}
	b.probed = true
	b.nominal = nominal
	for pos, e := range b.inflight {
		if dominatedNominal(e.nominal, nominal) {
			e.cancel(errDominated)
			delete(b.inflight, pos)
		}
	}
	return true
}

// registerUnlessSkipped atomically consults the incumbent and, when the
// combination is not already dominated, registers it as cancellable
// in-flight work. It reports false when the combination should be skipped
// without running the mapper.
func (b *incumbentBoard) registerUnlessSkipped(pos int, nominal float64, cancel context.CancelCauseFunc) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.probed && dominatedNominal(nominal, b.nominal) {
		return false
	}
	b.inflight[pos] = inflightEntry{nominal: nominal, cancel: cancel}
	return true
}

func (b *incumbentBoard) unregister(pos int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.inflight, pos)
}

// scalarFold is the classic step-3 acceptance walk: keep the single
// deadline-meeting design with minimum nominal power, tie-broken by Γ and
// measured power, with the incumbent board driving branch-and-bound
// dominance skips and in-flight cancellation.
type scalarFold struct {
	prune bool
	board *incumbentBoard
	tel   *Telemetry // incumbent/bound event sink; nil when detached

	best        *Design
	bestNominal float64 // the incumbent's own nominal (acceptance rule)
	bestProbed  bool
}

func newScalarFold(prune bool, tel *Telemetry) *scalarFold {
	return &scalarFold{prune: prune, board: newIncumbentBoard(), tel: tel}
}

// seed pre-publishes a realizable probed-feasible nominal as the dominance
// threshold before any combination has folded. The nominal must be that of
// an actual probe-feasible combination of the stream (the ranked pass's
// first hit), so every beyond-band skip it causes discards a provably
// non-winning combination.
func (s *scalarFold) seed(nominal float64) {
	s.board.publish(nominal)
	if s.tel != nil {
		s.tel.event(EventBound, -1, -1, nominal, 0)
	}
}

func (s *scalarFold) dispatchSkip(o *outcome) bool {
	return s.prune && s.board.shouldSkip(o.nominal)
}

func (s *scalarFold) register(o *outcome, cancel context.CancelCauseFunc) bool {
	if !s.prune {
		return true
	}
	return s.board.registerUnlessSkipped(o.pos, o.nominal, cancel)
}

func (s *scalarFold) unregister(pos int) {
	if s.prune {
		s.board.unregister(pos)
	}
}

// mapperSkippable: once any probed-feasible incumbent stands (folded or
// seeded), a probe-infeasible combination can never displace it — the
// acceptance walk prefers probed designs outright — so its mapper run is
// irrelevant to the scalar verdict. The board's probed flag is monotone, so
// confirmSkip reproduces every worker-time verdict.
func (s *scalarFold) mapperSkippable() bool {
	return s.prune && s.board.hasProbed()
}

// confirmSkip applies the authoritative branch-and-bound verdict. The
// dominance threshold is the board's — monotone non-increasing — not the
// incumbent's own nominal, which can drift upward within the tolerance band
// on Γ tie-breaks. Once the walk starts only the fold goroutine writes the
// board, so the verdict is a pure function of the fold state. The second
// branch mirrors mapperSkippable: with a probed incumbent standing, a
// probe-infeasible combination is irrelevant whether or not its mapper
// happened to run.
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
	tightened := o.probed && s.board.publish(o.nominal)
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
// monotone, so dispatch-time skips are always reproducible at fold time.
// Only the run's own frontier prunes: with Γ active no realized vector
// (Γ > 0 at any nonzero SER) dominates a bound's zero Γ, so points from
// outside the run could prune little beyond single-objective power or
// makespan runs. The mutex makes the dispatcher's opportunistic reads safe
// against fold-goroutine writes.
type paretoFold struct {
	deadlineSec float64

	// scalar mirrors the step-3 acceptance walk over every resolved
	// design, so the all-infeasible degenerate verdict is available
	// without a second pass whenever no combination was bound-pruned.
	scalar *scalarFold

	tel *Telemetry // admission event sink; nil when detached

	mu       sync.RWMutex
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
	lb := pareto.Vector{Power: o.nominal, Makespan: o.tmLB}
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.fold_.DominatedBound(lb)
}

// register: the Pareto fold has no in-flight cancellation — a frontier
// admission rarely dominates outstanding work outright (its Γ lower bound
// is zero) — so registration is just a last-moment skip check.
func (p *paretoFold) register(o *outcome, _ context.CancelCauseFunc) bool {
	return !p.dispatchSkip(o)
}

func (p *paretoFold) unregister(int) {}

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
	p.mu.Lock()
	p.admitted = p.fold_.Offer(v, o.idx, o.design)
	size := p.fold_.Size()
	p.mu.Unlock()
	if p.admitted && p.tel != nil {
		p.tel.event(EventAdmitted, o.pos, o.idx, o.nominal, size)
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
// call (the dispatcher copies it into a pooled slab). Both walks are
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
// claim stream shared by up to Config.Parallelism long-lived workers (0
// selects GOMAXPROCS; never more than the space holds). A worker claims the
// next surviving candidate — it advances the walk and the bounds cursor and
// drops bound-infeasible combinations, exactly as the stream's dispatcher
// would prune them, all under one mutex — probes it, records the verdict and
// claims again, so no worker ever waits for another worker's climb. Once a
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

	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, space.Count()), 1)
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

	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
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
		}()
	}
	wg.Wait()
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
}

// exploreCore is the streaming work loop shared by every strategy and fold:
// a dispatcher walks the combination source under a bounded reorder window,
// workers map combinations concurrently, and the calling goroutine folds
// outcomes in visit order (the deterministic ordered reduction). With
// opts.prune set, the dispatcher applies the branch-and-bound rules ahead of
// the mapper and the reduction applies them authoritatively at fold time, so
// the pruned and skipped markers — like everything else in the event stream
// — are a pure function of the configuration.
//
// Per-combination state is recycled: scaling vectors live in a slab pool
// bounded by the reorder window, the reduction ring holds outcomes by value,
// and the Progress event struct is reused across callbacks (hence the
// borrowed-event contract on Progress). Nominal power and the T_M lower
// bound are maintained by a metrics.Cursor, so the dispatcher's per-step
// bound work is O(changed coefficients) — and because both are pure
// functions of the level histogram, every strategy (exhaustive,
// branch-and-bound, sampled, ranked-seeded) sees bit-identical values for
// the same combination.
func exploreCore(ctx context.Context, g *taskgraph.Graph, p *arch.Platform,
	mapper MapperFunc, cfg Config, fold streamFold, opts coreOptions) (perScaling []*Design, prunedCount int, err error) {
	strategy := cfg.Strategy.withDefault()
	src := opts.source
	if src == nil {
		src, err = newComboSource(p, cfg, strategy)
		if err != nil {
			return nil, 0, err
		}
	}
	total := src.size
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}
	window := 4 * workers
	if window < 16 {
		window = 16
	}
	if window > total {
		window = total
	}
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

	// Slab pool for per-combination scaling vectors: the token window bounds
	// outcomes in flight, so at most `window` slabs circulate — taken by the
	// dispatcher, released by the reduction once the combination's Progress
	// callback has returned.
	slabs := make(chan []int, window)
	getSlab := func() []int {
		select {
		case s := <-slabs:
			return s
		default:
			return make([]int, cores)
		}
	}
	putSlab := func(s []int) {
		if s == nil {
			return
		}
		select {
		case slabs <- s:
		default:
		}
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	jobs := make(chan outcome) // combinations headed for a worker
	// The results buffer is deliberately smaller than the reorder window:
	// once a worker runs more than one mapper ahead of the fold it blocks
	// here, yielding to the reducer — otherwise on a single CPU the
	// dispatcher/worker ping-pong can starve the fold for the whole run
	// and the incumbent is never published in time to skip anything.
	results := make(chan outcome, workers)
	tokens := make(chan struct{}, window) // reorder-window backpressure
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}

	var producers sync.WaitGroup

	// Workers: map one combination at a time on a private evaluator and a
	// private reused MapContext, under a per-combination cancellable context
	// so dominated work can be abandoned mid-search.
	for w := 0; w < workers; w++ {
		producers.Add(1)
		go func(w int) {
			defer producers.Done()
			wk, evErr := newComboWorker(g, p, cfg)
			if evErr == nil {
				defer wk.close(tel)
			}
			skippable := fold.mapperSkippable
			for o := range jobs {
				if evErr != nil {
					o.err = evErr
					results <- o
					continue
				}
				jctx, jcancel := context.WithCancelCause(wctx)
				if opts.prune && !fold.register(&o, jcancel) {
					// Atomic check-and-register: no window between
					// consulting the fold state and becoming cancellable.
					jcancel(nil)
					o.skipCand = true
					results <- o
					continue
				}
				var spanStart int64
				if tel != nil {
					spanStart = tel.now()
				}
				o.design, o.probed, o.probeKnown, o.skipCand, o.err = exploreCombo(jctx, wk.mc, mapper, o.scaling, o.idx, cfg, skippable)
				if opts.prune {
					fold.unregister(o.pos)
				}
				if o.err != nil && context.Cause(jctx) == errDominated {
					// The incumbent made this combination irrelevant while
					// it was being mapped; the fold confirms the skip.
					o.err, o.design = nil, nil
					o.skipCand = true
				}
				jcancel(nil)
				if tel != nil {
					kind := "map"
					if o.design == nil {
						kind = "skip"
					}
					tel.workerSpan(w, spanStart, tel.now(), o.idx, kind)
				}
				results <- o
			}
		}(w)
	}

	// Dispatcher: streams the combination source in visit order, resolving
	// the cheap outcomes (bound-pruned, already-dominated) inline via the
	// bound cursor and handing the rest to the workers. The token channel
	// caps dispatched-but-unfolded combinations at the window size, so the
	// reduction's reorder buffer — and with it the whole exploration —
	// needs O(workers) memory however large the enumeration is.
	producers.Add(1)
	go func() {
		defer producers.Done()
		defer close(jobs)
		for pos := 0; ; pos++ {
			// Enumeration-phase clock: only the dispatcher's own work is
			// timed; waiting on the token window or a worker slot is idle
			// backpressure, not enumeration.
			var et0 int64
			if tel != nil {
				et0 = tel.now()
			}
			scaling, idx, more := src.next()
			if tel != nil {
				tel.addEnum(tel.now() - et0)
			}
			if !more {
				return
			}
			select {
			case <-tokens:
			case <-wctx.Done():
				return
			}
			if tel != nil {
				et0 = tel.now()
			}
			o := outcome{pos: pos, idx: idx}
			if _, err := cursor.Advance(scaling); err != nil {
				o.err = err
				results <- o
				continue
			}
			slab := getSlab()
			copy(slab, scaling)
			o.scaling = slab
			o.nominal = cursor.NominalPower()
			if opts.computeBounds {
				o.tmLB = cursor.TMLowerBound()
				// Prune only beyond a safety band: the bound is exact
				// mathematics but inexact floats.
				if opts.prune && cfg.DeadlineSec > 0 && o.tmLB > cfg.DeadlineSec*(1+1e-9) {
					o.pruned = true
					if tel != nil {
						tel.addEnum(tel.now() - et0)
					}
					results <- o
					continue
				}
			}
			if opts.prune && fold.dispatchSkip(&o) {
				o.skipCand = true
				if tel != nil {
					tel.addEnum(tel.now() - et0)
				}
				results <- o
				continue
			}
			if tel != nil {
				tel.addEnum(tel.now() - et0)
			}
			select {
			case jobs <- o:
			case <-wctx.Done():
				return
			}
		}
	}()
	go func() {
		producers.Wait()
		close(results)
	}()

	// Deterministic ordered reduction: outcomes are folded in visit order
	// as soon as their prefix is complete, so the acceptance walk, the
	// pruned/skipped verdicts and the Progress stream never depend on
	// worker timing. pending is a by-value reorder ring of at most window
	// entries.
	pending := make([]outcome, window)
	havePending := make([]bool, window)
	next := 0
	var firstErr error
	firstErrPos := total
	red := newReduction(cfg, fold, total, opts.records)
	for o := range results {
		if o.err != nil {
			// Keep the lowest-positioned real failure as the verdict
			// (jobs aborted by the internal cancel report the context
			// error), then cancel either way: an errored position can
			// never fold, so without cancellation the dispatcher would
			// wait on its window token forever.
			putSlab(o.scaling)
			if !errors.Is(o.err, context.Canceled) && o.pos < firstErrPos {
				firstErr, firstErrPos = o.err, o.pos
			}
			cancel()
			continue
		}
		pending[o.pos%window] = o
		havePending[o.pos%window] = true
		for next < total && havePending[next%window] && pending[next%window].pos == next {
			d := &pending[next%window]
			havePending[next%window] = false
			var ft0 int64
			if tel != nil {
				ft0 = tel.now()
			}

			// Authoritative branch-and-bound verdict, decided on the
			// deterministic fold state alone.
			skipped := opts.prune && !d.pruned && fold.confirmSkip(d)
			if d.skipCand && !skipped && !d.pruned {
				// A dispatch-time skip the fold cannot reproduce would
				// break determinism; by the fold's monotonicity this is
				// unreachable, so fail loudly rather than silently diverge.
				if firstErr == nil || next < firstErrPos {
					firstErr = fmt.Errorf("mapping: internal error: combination %d skipped against a weaker incumbent", d.idx)
					firstErrPos = next
					cancel()
				}
				break
			}
			red.resolve(next, d, skipped)
			putSlab(d.scaling)
			d.scaling = nil
			d.design = nil
			if tel != nil {
				tel.addFold(tel.now() - ft0)
			}
			next++
			tokens <- struct{}{}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if firstErr != nil {
		return nil, 0, firstErr
	}
	if next != total {
		// Only reachable if a worker swallowed a cancellation without a
		// parent-context error; treat it as cancellation.
		return nil, 0, context.Canceled
	}
	return red.perScaling, red.pruned, nil
}

// reduction is the per-position bookkeeping of the ordered reduction,
// shared by exploreCore and the shard replay. Every resolved position
// appends to perScaling, counts toward the pruned total, records its
// telemetry verdict and, in a shard, its ShardRecord, folds when neither
// pruned nor skipped, and reaches the Progress callback through the one
// event reused across every callback (hence the borrowed-event contract on
// Progress).
type reduction struct {
	fold       streamFold
	progress   func(Progress)
	tel        *Telemetry
	total      int
	keep       bool           // retain perScaling
	records    []*ShardRecord // nil unless a shard records its verdicts
	perScaling []*Design
	pruned     int
	ev         Progress
}

func newReduction(cfg Config, fold streamFold, total int, records []*ShardRecord) *reduction {
	r := &reduction{fold: fold, progress: cfg.Progress, tel: cfg.Telemetry, total: total,
		keep: !cfg.DiscardPerScaling, records: records}
	if r.keep {
		r.perScaling = make([]*Design, 0, total)
	}
	return r
}

// resolve applies the verdict of the outcome at visit position pos:
// pruned (o.pruned), skipped, or folded. A skipped position whose mapper
// ran keeps its mapping in the shard record, so a coordinator whose
// tolerance band disagrees re-evaluates it instead of re-mapping.
func (r *reduction) resolve(pos int, o *outcome, skipped bool) {
	kind := ""
	var d *Design
	switch {
	case o.pruned:
		kind = EventPruned
		r.pruned++
	case skipped:
		kind = EventSkipped
	default:
		d = o.design
	}
	if r.tel != nil {
		r.tel.comboVerdict(kind, pos, o.idx, o.nominal)
	}
	if r.keep {
		r.perScaling = append(r.perScaling, d)
	}
	if r.records != nil && !o.pruned {
		rec := &ShardRecord{Idx: o.idx, Skipped: skipped, Probed: o.probed, ProbeKnown: o.probeKnown}
		if o.design != nil {
			rec.Mapping = append([]int(nil), o.design.Mapping...)
		}
		r.records[pos] = rec
	}
	scaling := o.scaling
	if d != nil {
		r.fold.fold(o)
		scaling = d.Scaling
	}
	if r.progress != nil {
		r.ev = Progress{Index: pos, Total: r.total, Combination: o.idx, Scaling: scaling,
			Pruned: o.pruned, Skipped: skipped, Design: d}
		r.fold.annotate(&r.ev)
		r.progress(r.ev)
	}
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
func exploreCombo(ctx context.Context, mc *MapContext, mapper MapperFunc,
	scaling []int, idx int, cfg Config, skippable func() bool) (d *Design, probed, probeKnown, skipped bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, false, false, err
	}
	if err := mc.bind(ctx, scaling, idx, cfg.Seed); err != nil {
		return nil, false, false, false, err
	}
	// Step 1's feasibility decision is mapper-independent: a common
	// deadline probe decides which scalings are candidates, so every
	// experiment (Exp:1-4) selects its design from the same scaling
	// set and differences between them come from mapping alone. If the
	// probe proves feasibility that the experiment's own mapper missed,
	// the probe's mapping is the design at this scaling.
	tel := cfg.Telemetry
	var t0 int64
	if tel != nil {
		t0 = tel.now()
	}
	probeEv, probedFeasible, probeHit, err := cfg.Reuse.probe.feasibleAtScaling(mc, idx, cfg)
	if tel != nil {
		tel.observeProbe(tel.now()-t0, probeHit)
	}
	if err != nil {
		return nil, false, false, false, err
	}
	if !probedFeasible && skippable != nil && skippable() {
		if tel != nil {
			tel.mapperSpared()
		}
		return nil, false, true, true, nil
	}
	if tel != nil {
		t0 = tel.now()
	}
	m, ev, err := mapper(mc)
	if tel != nil {
		tel.observeMapper(tel.now() - t0)
	}
	if err != nil {
		return nil, false, false, false, fmt.Errorf("mapping: scaling %v: %w", scaling, err)
	}
	if probedFeasible && !ev.MeetsDeadline {
		// Clone: the cache owns probeEv, and Explore calls sharing the
		// cache must not hand out aliased mutable Designs.
		ev = probeEv.Clone()
		m = ev.Schedule.Mapping
	}
	probed = probedFeasible && ev.MeetsDeadline
	d = &Design{Scaling: append([]int(nil), scaling...), Mapping: m, Eval: ev}
	return d, probed, true, false, nil
}

// bind points mc at combination idx: it binds the evaluator to scaling and
// sets Ctx, Scaling and the combination's stream seed, comboSeed(seed, idx).
// Every engine path that probes or maps a combination binds through here,
// so the ranked pass, the stream and the replay probe a combination under
// one seed.
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
