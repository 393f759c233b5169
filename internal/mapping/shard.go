package mapping

// Distributed sharded exploration.
//
// The combination space is a totally ordered enumeration with O(1)
// Rank/Unrank (vscale.Space), so it partitions into contiguous [Lo,Hi)
// shards that peer workers explore independently. Each worker runs the
// ordinary streaming core restricted to its range and returns a compact
// per-combination record stream (skip verdicts plus realized mappings);
// the coordinator then REPLAYS the exact single-node fold in global rank
// order, treating the records as an accelerator, not an authority:
//
//   - prune verdicts are recomputed from the coordinator's own bound
//     cursor (a pure function of the combination);
//   - dominance/skip verdicts are re-decided by the coordinator's own
//     fold state, consulting the shared feasibility probe when a record
//     lacks the probe verdict the single-node rule needs;
//   - folded designs are re-evaluated from the recorded mapping, and any
//     position the shards skipped but the coordinator's authoritative
//     rule wants to fold is recomputed outright via exploreCombo (designs
//     are pure functions of (graph, platform, Config, index)).
//
// Byte-identity of the merged Design/frontier and Progress stream with a
// single-node run therefore holds BY CONSTRUCTION: shard-side skips and
// cross-shard bound facts can only save work, never change the answer.
//
// While shards run, bound tightenings travel between them as Facts on a
// FactBoard: a shard that accepts a probed-feasible incumbent (scalar) or
// admits a frontier member (Pareto) publishes the fact, and every shard
// prunes against facts derived at global positions BEFORE its own range —
// those positions precede every position of the shard, so the dominance
// argument is the same as against a locally folded incumbent.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"seadopt/internal/arch"
	"seadopt/internal/pareto"
	"seadopt/internal/sched"
	"seadopt/internal/taskgraph"
	"seadopt/internal/vscale"
)

// ShardRange is one contiguous slice [Lo,Hi) of the combination
// enumeration, in stable Fig. 5 rank order.
type ShardRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// ShardRanges splits an enumeration of total combinations into n
// contiguous near-equal ranges covering [0,total) in order. Ranges beyond
// the total come out empty (Lo == Hi), which ExploreShard handles.
func ShardRanges(total, n int) []ShardRange {
	if n < 1 {
		n = 1
	}
	out := make([]ShardRange, n)
	base, rem := total/n, total%n
	lo := 0
	for i := range out {
		size := base
		if i < rem {
			size++
		}
		out[i] = ShardRange{Lo: lo, Hi: lo + size}
		lo += size
	}
	return out
}

// Fact is one cross-shard pruning fact: a dominance threshold (scalar) or
// a realized frontier vector (Pareto) derived at global position Pos.
// Receivers apply only facts with Pos below their own range (Pos -1 marks
// the coordinator's pre-stream incumbent seed, below every range), so the
// soundness argument is positional, independent of arrival order.
type Fact struct {
	// Pos is the global enumeration position the fact was derived at;
	// -1 for the coordinator's ranked/warm incumbent seed.
	Pos int `json:"pos"`
	// Pareto distinguishes frontier-admission facts from scalar
	// dominance-threshold facts.
	Pareto bool `json:"pareto,omitempty"`
	// Nominal is the scaling's nominal power: the scalar dominance
	// threshold, or the Pareto vector's power component.
	Nominal float64 `json:"nominal"`
	// Makespan and Gamma complete the realized objective vector of a
	// Pareto admission fact.
	Makespan float64 `json:"makespan,omitempty"`
	Gamma    float64 `json:"gamma,omitempty"`
}

// FactBoard is the coordinator-owned fact bus: shards publish bound
// tightenings and subscribe to everyone else's. Facts are deduplicated,
// delivery order is unordered (facts are monotone accumulators), and
// subscribers first replay every fact already published. Safe for
// concurrent use; subscriber callbacks run outside the board lock and
// must be safe to call from multiple goroutines.
type FactBoard struct {
	mu    sync.Mutex
	facts []Fact
	seen  map[Fact]struct{}
	subs  []func(Fact)
}

// NewFactBoard returns an empty fact bus.
func NewFactBoard() *FactBoard {
	return &FactBoard{seen: make(map[Fact]struct{})}
}

// Publish records a fact and notifies subscribers; duplicate facts are
// dropped (reporting false), which keeps coordinator↔peer relays from
// echoing forever.
func (b *FactBoard) Publish(f Fact) bool {
	b.mu.Lock()
	if _, dup := b.seen[f]; dup {
		b.mu.Unlock()
		return false
	}
	b.seen[f] = struct{}{}
	b.facts = append(b.facts, f)
	subs := make([]func(Fact), len(b.subs))
	copy(subs, b.subs)
	b.mu.Unlock()
	for _, fn := range subs {
		fn(f)
	}
	return true
}

// Since returns the facts published at or after cursor position n, plus
// the next cursor — the poll interface the HTTP fact exchange uses.
func (b *FactBoard) Since(n int) ([]Fact, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if n > len(b.facts) {
		n = len(b.facts)
	}
	return append([]Fact(nil), b.facts[n:]...), len(b.facts)
}

// Subscribe registers fn for every future fact and replays the already
// published ones, so late subscribers miss nothing.
func (b *FactBoard) Subscribe(fn func(Fact)) {
	b.mu.Lock()
	b.subs = append(b.subs, fn)
	replay := append([]Fact(nil), b.facts...)
	b.mu.Unlock()
	for _, f := range replay {
		fn(f)
	}
}

// ShardRecord is one combination's resolution inside a shard: the skip
// verdict the shard's fold reached, the probe verdict where the shard ran
// it, and the realized mapping where a design was produced. The
// coordinator treats all of it as hints — anything missing is recomputed.
type ShardRecord struct {
	// Idx is the combination's stable global enumeration index.
	Idx int `json:"idx"`
	// Skipped marks a fold-time dominance skip (as opposed to a design).
	Skipped bool `json:"skipped,omitempty"`
	// Probed/ProbeKnown carry the shard's feasibility-probe verdict;
	// ProbeKnown is false for dispatch-time skips that never probed.
	Probed     bool `json:"probed,omitempty"`
	ProbeKnown bool `json:"probe_known,omitempty"`
	// Mapping is the realized task→core assignment where the shard's
	// mapper ran; the coordinator re-evaluates it rather than shipping
	// the full evaluation.
	Mapping []int `json:"mapping,omitempty"`
}

// ShardRequest asks a worker to explore one range of the current problem.
// The problem itself (graph, platform, Config) travels out of band: in
// process via the runner closure, over HTTP via the canonical problem
// encoding.
type ShardRequest struct {
	Range ShardRange `json:"range"`
	// NoPrune forces an exhaustive walk of the range — the coordinator's
	// degenerate all-infeasible fallback pass.
	NoPrune bool `json:"no_prune,omitempty"`
	// Pareto selects the frontier fold (with its embedded scalar walk)
	// instead of the scalar incumbent fold.
	Pareto bool `json:"pareto,omitempty"`
	// InitialFacts seeds the worker's fact state for transports without a
	// live board at request time; ExploreShard republishes them locally.
	InitialFacts []Fact `json:"initial_facts,omitempty"`
}

// ShardResult is a worker's record stream: one entry per range position
// (records[i] resolves rank Range.Lo+i), nil for bound-pruned positions.
type ShardResult struct {
	Range   ShardRange     `json:"range"`
	Records []*ShardRecord `json:"records"`
}

// ShardRunner executes one shard request — in this process, in a sibling
// process, or on an HTTP peer — against a live fact board.
type ShardRunner func(ctx context.Context, req ShardRequest, board *FactBoard) (*ShardResult, error)

// InProcRunner returns a ShardRunner executing shards embedded in the
// calling process over the given workload; cfg's probe cache (materialize
// it first) is shared with the coordinator.
func InProcRunner(g *taskgraph.Graph, p *arch.Platform, mapper MapperFunc, cfg Config) ShardRunner {
	return func(ctx context.Context, req ShardRequest, board *FactBoard) (*ShardResult, error) {
		return ExploreShard(ctx, g, p, mapper, cfg, req, board)
	}
}

// rangeComboSource restricts the full-order walk to [lo,hi) while keeping
// the stable global enumeration indices.
func rangeComboSource(space *vscale.Space, lo, hi int) (*comboSource, error) {
	if lo == hi {
		return &comboSource{size: 0, next: func() ([]int, int, bool) { return nil, 0, false }}, nil
	}
	it, err := space.IterFrom(lo)
	if err != nil {
		return nil, err
	}
	remaining := hi - lo
	return &comboSource{
		size: hi - lo,
		next: func() ([]int, int, bool) {
			if remaining == 0 {
				return nil, 0, false
			}
			remaining--
			return it.Next()
		},
	}, nil
}

// shardScalarFold wraps the scalar fold with the cross-shard dominance
// threshold: facts from positions before the shard act exactly like a
// pre-seeded incumbent. The external threshold is a monotone-decreasing
// atomic consulted identically at dispatch, register and fold time, so
// every opportunistic skip stays reproducible by confirmSkip.
type shardScalarFold struct {
	inner *scalarFold
	lo    int
	board *FactBoard
	prune bool

	extBits   atomic.Uint64 // Float64bits of the external threshold
	extSeeded atomic.Bool
}

func newShardScalarFold(inner *scalarFold, lo int, board *FactBoard, prune bool) *shardScalarFold {
	s := &shardScalarFold{inner: inner, lo: lo, board: board, prune: prune}
	s.extBits.Store(math.Float64bits(math.Inf(1)))
	if board != nil && prune {
		board.Subscribe(s.applyFact)
	}
	return s
}

func (s *shardScalarFold) applyFact(f Fact) {
	if f.Pareto || f.Pos >= s.lo {
		return
	}
	for {
		old := s.extBits.Load()
		if math.Float64frombits(old) <= f.Nominal {
			break
		}
		if s.extBits.CompareAndSwap(old, math.Float64bits(f.Nominal)) {
			break
		}
	}
	s.extSeeded.Store(true)
}

func (s *shardScalarFold) extDominated(nominal float64) bool {
	return s.prune && s.extSeeded.Load() &&
		dominatedNominal(nominal, math.Float64frombits(s.extBits.Load()))
}

func (s *shardScalarFold) dispatchSkip(o *outcome) bool {
	return s.extDominated(o.nominal) || s.inner.dispatchSkip(o)
}

func (s *shardScalarFold) register(o *outcome, cancel context.CancelCauseFunc) bool {
	if s.extDominated(o.nominal) {
		return false
	}
	return s.inner.register(o, cancel)
}

func (s *shardScalarFold) unregister(pos int) { s.inner.unregister(pos) }

func (s *shardScalarFold) mapperSkippable() bool {
	return (s.prune && s.extSeeded.Load()) || s.inner.mapperSkippable()
}

func (s *shardScalarFold) confirmSkip(o *outcome) bool {
	if s.extDominated(o.nominal) {
		return true
	}
	// Mirror scalarFold's probe-infeasible rule under an external probed
	// incumbent the inner fold may not know about.
	if s.prune && s.extSeeded.Load() && o.probeKnown && !o.probed {
		return true
	}
	return s.inner.confirmSkip(o)
}

func (s *shardScalarFold) fold(o *outcome) {
	before := s.inner.domNominal
	had := s.inner.bestProbed || s.inner.seeded
	s.inner.fold(o)
	if s.board == nil || !o.probed {
		return
	}
	if now := s.inner.bestProbed || s.inner.seeded; now && (!had || s.inner.domNominal < before) {
		s.board.Publish(Fact{Pos: s.lo + o.pos, Nominal: s.inner.domNominal})
	}
}

func (s *shardScalarFold) annotate(ev *Progress) { s.inner.annotate(ev) }

// shardParetoFold wraps the Pareto fold with an external ghost frontier
// built from admission facts of positions before the shard. Points are
// only ever added, so DominatedBound stays monotone and every
// opportunistic skip is reproducible at fold time.
type shardParetoFold struct {
	inner *paretoFold
	lo    int
	board *FactBoard
	prune bool

	mu   sync.RWMutex
	ext  *pareto.Fold[struct{}]
	seen map[Fact]struct{}
}

func newShardParetoFold(inner *paretoFold, lo int, objectives pareto.Objectives, board *FactBoard, prune bool) (*shardParetoFold, error) {
	ext, err := pareto.NewFold[struct{}](objectives)
	if err != nil {
		return nil, err
	}
	s := &shardParetoFold{inner: inner, lo: lo, board: board, prune: prune,
		ext: ext, seen: make(map[Fact]struct{})}
	if board != nil && prune {
		board.Subscribe(s.applyFact)
	}
	return s, nil
}

func (s *shardParetoFold) applyFact(f Fact) {
	if !f.Pareto || f.Pos >= s.lo {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.seen[f]; dup {
		return
	}
	s.seen[f] = struct{}{}
	s.ext.Offer(pareto.Vector{Power: f.Nominal, Makespan: f.Makespan, Gamma: f.Gamma},
		f.Pos, struct{}{})
}

func (s *shardParetoFold) extDominated(lb pareto.Vector) bool {
	if !s.prune {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ext.DominatedBound(lb)
}

func (s *shardParetoFold) dispatchSkip(o *outcome) bool {
	return s.extDominated(s.inner.bound(o)) || s.inner.dispatchSkip(o)
}

func (s *shardParetoFold) register(o *outcome, _ context.CancelCauseFunc) bool {
	return !s.dispatchSkip(o)
}

func (s *shardParetoFold) unregister(int) {}

func (s *shardParetoFold) mapperSkippable() bool { return s.inner.mapperSkippable() }

func (s *shardParetoFold) confirmSkip(o *outcome) bool {
	return s.extDominated(s.inner.bound(o)) || s.inner.confirmSkip(o)
}

func (s *shardParetoFold) fold(o *outcome) {
	s.inner.fold(o)
	if s.board == nil || !s.inner.admitted {
		return
	}
	e := o.design.Eval
	s.board.Publish(Fact{Pos: s.lo + o.pos, Pareto: true,
		Nominal: o.nominal, Makespan: e.TMSeconds, Gamma: e.Gamma})
}

func (s *shardParetoFold) annotate(ev *Progress) { s.inner.annotate(ev) }

// recordingFold decorates a shard's fold to capture the per-combination
// record stream the coordinator replays. Bound-pruned positions never
// reach the fold, leaving their record nil.
type recordingFold struct {
	inner   streamFold
	records []*ShardRecord
}

func (r *recordingFold) dispatchSkip(o *outcome) bool { return r.inner.dispatchSkip(o) }
func (r *recordingFold) register(o *outcome, cancel context.CancelCauseFunc) bool {
	return r.inner.register(o, cancel)
}
func (r *recordingFold) unregister(pos int)    { r.inner.unregister(pos) }
func (r *recordingFold) mapperSkippable() bool { return r.inner.mapperSkippable() }

func (r *recordingFold) confirmSkip(o *outcome) bool {
	if !r.inner.confirmSkip(o) {
		return false
	}
	rec := &ShardRecord{Idx: o.idx, Skipped: true, Probed: o.probed, ProbeKnown: o.probeKnown}
	if o.design != nil {
		// A dominance-skipped combination that did run the mapper: keep
		// the mapping so a coordinator that disagrees (the tolerance band
		// can differ by one incumbent) re-evaluates instead of re-mapping.
		rec.Mapping = append([]int(nil), o.design.Mapping...)
	}
	r.records[o.pos] = rec
	return true
}

func (r *recordingFold) fold(o *outcome) {
	r.records[o.pos] = &ShardRecord{Idx: o.idx, Probed: o.probed, ProbeKnown: o.probeKnown,
		Mapping: append([]int(nil), o.design.Mapping...)}
	r.inner.fold(o)
}

func (r *recordingFold) annotate(ev *Progress) { r.inner.annotate(ev) }

// ExploreShard is the worker side of the distributed exploration: it runs
// the ordinary streaming core over req.Range with the shard fold wrapper,
// publishing bound tightenings to (and pruning against) board, and
// returns the record stream for the coordinator's replay. Progress,
// telemetry, warm hints and ranked seeding are coordinator concerns and
// are forced off here.
func ExploreShard(ctx context.Context, g *taskgraph.Graph, p *arch.Platform,
	mapper MapperFunc, cfg Config, req ShardRequest, board *FactBoard) (*ShardResult, error) {
	cfg = cfg.withDefaults()
	if req.Pareto && cfg.Objectives == 0 {
		cfg.Objectives = pareto.DefaultObjectives
	}
	cfg.Progress = nil
	cfg.Telemetry = nil
	cfg.DiscardPerScaling = true
	cfg.Ranked = false
	cfg.WarmHints = nil
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	strategy := cfg.Strategy.withDefault()
	if strategy == StrategySampled {
		return nil, fmt.Errorf("mapping: sharded exploration requires a contiguous enumeration strategy")
	}
	if cfg.Probe == nil {
		if cfg.Reuse != nil {
			cfg.Probe = cfg.Reuse.Probe()
		} else {
			cfg.Probe = NewProbeCache()
		}
	}
	space, err := vscale.PlatformSpace(p)
	if err != nil {
		return nil, err
	}
	total := space.Count()
	lo, hi := req.Range.Lo, req.Range.Hi
	if lo < 0 || hi < lo || hi > total {
		return nil, fmt.Errorf("mapping: shard range [%d,%d) outside enumeration of %d combinations", lo, hi, total)
	}
	src, err := rangeComboSource(space, lo, hi)
	if err != nil {
		return nil, err
	}
	prune := !req.NoPrune && strategy != StrategyExhaustive

	rec := &recordingFold{records: make([]*ShardRecord, hi-lo)}
	var opts coreOptions
	if req.Pareto {
		pf, err := newParetoFold(cfg)
		if err != nil {
			return nil, err
		}
		if prune && len(cfg.WarmFrontier) > 0 && strategy == StrategyBranchAndBound {
			ghosts, err := warmGhostFold(g, p, cfg)
			if err != nil {
				return nil, err
			}
			pf.ghosts = ghosts
		}
		sw, err := newShardParetoFold(pf, lo, cfg.Objectives, board, prune)
		if err != nil {
			return nil, err
		}
		rec.inner = sw
		opts = coreOptions{computeBounds: true, prune: prune, source: src}
	} else {
		sw := newShardScalarFold(newScalarFold(prune), lo, board, prune)
		rec.inner = sw
		opts = coreOptions{computeBounds: prune && cfg.DeadlineSec > 0, prune: prune, source: src}
	}
	if board != nil {
		for _, f := range req.InitialFacts {
			board.Publish(f)
		}
	}
	if _, _, err := exploreCore(ctx, g, p, mapper, cfg, rec, opts); err != nil {
		return nil, err
	}
	return &ShardResult{Range: req.Range, Records: rec.records}, nil
}

// runShards fans base out over the ranges, one runner per range, and
// assembles the global record array (indexed by enumeration rank). The
// first real failure cancels the remaining shards.
func runShards(ctx context.Context, base ShardRequest, ranges []ShardRange,
	runners []ShardRunner, board *FactBoard, total int) ([]*ShardRecord, error) {
	if len(ranges) != len(runners) {
		return nil, fmt.Errorf("mapping: %d shard ranges for %d runners", len(ranges), len(runners))
	}
	records := make([]*ShardRecord, total)
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i := range ranges {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := base
			req.Range = ranges[i]
			res, err := runners[i](wctx, req, board)
			if err != nil {
				errs[i] = err
				cancel()
				return
			}
			want := ranges[i].Hi - ranges[i].Lo
			if res == nil || len(res.Records) != want {
				got := 0
				if res != nil {
					got = len(res.Records)
				}
				errs[i] = fmt.Errorf("mapping: shard [%d,%d) returned %d records, want %d",
					ranges[i].Lo, ranges[i].Hi, got, want)
				cancel()
				return
			}
			for j, r := range res.Records {
				if r != nil && r.Idx != ranges[i].Lo+j {
					errs[i] = fmt.Errorf("mapping: shard [%d,%d) record %d carries index %d",
						ranges[i].Lo, ranges[i].Hi, j, r.Idx)
					cancel()
					return
				}
			}
			copy(records[ranges[i].Lo:ranges[i].Hi], res.Records)
		}(i)
	}
	wg.Wait()
	var firstErr error
	for _, e := range errs {
		if e != nil && !errorsIsCanceled(e) {
			firstErr = e
			break
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return records, nil
}

func errorsIsCanceled(err error) bool { return errors.Is(err, context.Canceled) }

// noSkipFold is the inert fold the coordinator's recompute path hands to
// exploreCombo: it never authorizes a mapper skip, so a recomputed design
// is exactly what a pruning-free single-node worker would produce.
type noSkipFold struct{}

func (noSkipFold) dispatchSkip(*outcome) bool                      { return false }
func (noSkipFold) register(*outcome, context.CancelCauseFunc) bool { return true }
func (noSkipFold) unregister(int)                                  {}
func (noSkipFold) mapperSkippable() bool                           { return false }
func (noSkipFold) confirmSkip(*outcome) bool                       { return false }
func (noSkipFold) fold(*outcome)                                   {}
func (noSkipFold) annotate(*Progress)                              {}

// realizeDesign materializes the design of a position the authoritative
// replay wants to fold: re-evaluate the recorded mapping when the shard
// shipped one (bit-identical to the worker's evaluation of the same
// mapping), otherwise recompute the combination outright.
func realizeDesign(ctx context.Context, mc *MapContext, mapper MapperFunc,
	scaling []int, idx int, cfg Config, rec *ShardRecord) (*Design, bool, error) {
	if rec != nil && rec.Mapping != nil {
		if err := mc.Eval.Bind(scaling); err != nil {
			return nil, false, err
		}
		ev, err := mc.Eval.Evaluate(sched.Mapping(rec.Mapping))
		if err != nil {
			return nil, false, err
		}
		d := &Design{
			Scaling: append([]int(nil), scaling...),
			Mapping: append(sched.Mapping(nil), rec.Mapping...),
			Eval:    ev.Clone(),
		}
		return d, rec.Probed, nil
	}
	d, probed, _, skipped, err := exploreCombo(ctx, mc, mapper, scaling, idx, cfg, cfg.Probe, noSkipFold{})
	if err != nil {
		return nil, false, err
	}
	if skipped || d == nil {
		return nil, false, fmt.Errorf("mapping: internal error: recompute of combination %d produced no design", idx)
	}
	return d, probed, nil
}

// replayScalar is the coordinator's authoritative merge: the single-node
// scalar fold replayed in global rank order over the shard records.
func replayScalar(ctx context.Context, g *taskgraph.Graph, p *arch.Platform,
	mapper MapperFunc, cfg Config, fold *scalarFold, records []*ShardRecord,
	prune bool) (perScaling []*Design, prunedCount int, err error) {
	space, err := vscale.PlatformSpace(p)
	if err != nil {
		return nil, 0, err
	}
	total := space.Count()
	it := space.Iter()
	cursor := boundsFor(g, p, cfg).Cursor()
	eval, releaseEval, err := acquireEvaluator(g, p, cfg)
	if err != nil {
		return nil, 0, err
	}
	defer releaseEval()
	mc := &MapContext{Graph: g, Platform: p, Eval: eval, scratch: newComboScratch(g.N(), p.Cores())}
	computeBounds := prune && cfg.DeadlineSec > 0
	if !cfg.DiscardPerScaling {
		perScaling = make([]*Design, 0, total)
	}
	var ev Progress
	for pos := 0; ; pos++ {
		scaling, idx, more := it.Next()
		if !more {
			break
		}
		if pos&0xff == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		if _, err := cursor.Advance(scaling); err != nil {
			return nil, 0, err
		}
		o := outcome{pos: pos, idx: idx, scaling: scaling, nominal: cursor.NominalPower()}
		if computeBounds {
			o.tmLB = cursor.TMLowerBound()
			o.hasLB = true
			if o.tmLB > cfg.DeadlineSec*(1+1e-9) {
				prunedCount++
				if !cfg.DiscardPerScaling {
					perScaling = append(perScaling, nil)
				}
				if cfg.Progress != nil {
					ev = Progress{Index: pos, Total: total, Combination: idx,
						Scaling: scaling, Pruned: true}
					fold.annotate(&ev)
					cfg.Progress(ev)
				}
				continue
			}
		}
		rec := records[idx]
		if rec != nil {
			o.probed, o.probeKnown = rec.Probed, rec.ProbeKnown
		}
		skipped := false
		if prune {
			skipped = fold.confirmSkip(&o)
			if !skipped && !o.probeKnown && (fold.bestProbed || fold.seeded) {
				// The record is a dispatch-time skip that never probed, but
				// the coordinator's dominance band disagrees — decide with
				// the probe, exactly as the single-node worker would have.
				if err := eval.Bind(scaling); err != nil {
					return nil, 0, err
				}
				mc.Ctx = ctx
				mc.Scaling = eval.Scaling()
				mc.Seed = comboSeed(cfg.Seed, idx)
				_, feasible, _, perr := cfg.Probe.feasibleAtScaling(mc, idx, cfg)
				if perr != nil {
					return nil, 0, perr
				}
				o.probed, o.probeKnown = feasible, true
				skipped = fold.confirmSkip(&o)
			}
		}
		if skipped {
			if !cfg.DiscardPerScaling {
				perScaling = append(perScaling, nil)
			}
			if cfg.Progress != nil {
				ev = Progress{Index: pos, Total: total, Combination: idx,
					Scaling: scaling, Skipped: true}
				fold.annotate(&ev)
				cfg.Progress(ev)
			}
			continue
		}
		d, probed, err := realizeDesign(ctx, mc, mapper, scaling, idx, cfg, rec)
		if err != nil {
			return nil, 0, err
		}
		o.design, o.probed, o.probeKnown = d, probed, true
		if !cfg.DiscardPerScaling {
			perScaling = append(perScaling, d)
		}
		fold.fold(&o)
		if cfg.Progress != nil {
			ev = Progress{Index: pos, Total: total, Combination: idx,
				Scaling: d.Scaling, Design: d}
			fold.annotate(&ev)
			cfg.Progress(ev)
		}
	}
	return perScaling, prunedCount, nil
}

// replayPareto replays the single-node Pareto fold (deadline pruning,
// frontier bound-dominance skips, embedded scalar walk) over the shard
// records in global rank order.
func replayPareto(ctx context.Context, g *taskgraph.Graph, p *arch.Platform,
	mapper MapperFunc, cfg Config, fold *paretoFold, records []*ShardRecord,
	prune bool) (prunedCount int, err error) {
	space, err := vscale.PlatformSpace(p)
	if err != nil {
		return 0, err
	}
	total := space.Count()
	it := space.Iter()
	cursor := boundsFor(g, p, cfg).Cursor()
	eval, releaseEval, err := acquireEvaluator(g, p, cfg)
	if err != nil {
		return 0, err
	}
	defer releaseEval()
	mc := &MapContext{Graph: g, Platform: p, Eval: eval, scratch: newComboScratch(g.N(), p.Cores())}
	var ev Progress
	for pos := 0; ; pos++ {
		scaling, idx, more := it.Next()
		if !more {
			break
		}
		if pos&0xff == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		if _, err := cursor.Advance(scaling); err != nil {
			return 0, err
		}
		o := outcome{pos: pos, idx: idx, scaling: scaling, nominal: cursor.NominalPower()}
		o.tmLB = cursor.TMLowerBound()
		o.hasLB = true
		if prune && cfg.DeadlineSec > 0 && o.tmLB > cfg.DeadlineSec*(1+1e-9) {
			prunedCount++
			if cfg.Progress != nil {
				ev = Progress{Index: pos, Total: total, Combination: idx,
					Scaling: scaling, Pruned: true}
				fold.annotate(&ev)
				cfg.Progress(ev)
			}
			continue
		}
		rec := records[idx]
		if rec != nil {
			o.probed, o.probeKnown = rec.Probed, rec.ProbeKnown
		}
		if prune && fold.confirmSkip(&o) {
			if cfg.Progress != nil {
				ev = Progress{Index: pos, Total: total, Combination: idx,
					Scaling: scaling, Skipped: true}
				fold.annotate(&ev)
				cfg.Progress(ev)
			}
			continue
		}
		d, probed, err := realizeDesign(ctx, mc, mapper, scaling, idx, cfg, rec)
		if err != nil {
			return 0, err
		}
		o.design, o.probed, o.probeKnown = d, probed, true
		fold.fold(&o)
		if cfg.Progress != nil {
			ev = Progress{Index: pos, Total: total, Combination: idx,
				Scaling: d.Scaling, Design: d}
			fold.annotate(&ev)
			cfg.Progress(ev)
		}
	}
	return prunedCount, nil
}

// prepareSharded normalizes a coordinator Config and resolves the shard
// plan: one contiguous range per runner, nil runner entries replaced by
// embedded in-process execution sharing the coordinator's probe cache.
func prepareSharded(g *taskgraph.Graph, p *arch.Platform, mapper MapperFunc,
	cfg Config, runners []ShardRunner) (Config, []ShardRange, []ShardRunner, error) {
	if len(runners) == 0 {
		return cfg, nil, nil, fmt.Errorf("mapping: sharded exploration needs at least one shard runner")
	}
	if err := cfg.Validate(); err != nil {
		return cfg, nil, nil, err
	}
	if cfg.Strategy.withDefault() == StrategySampled {
		return cfg, nil, nil, fmt.Errorf("mapping: sharded exploration requires a contiguous enumeration strategy")
	}
	if cfg.Probe == nil {
		if cfg.Reuse != nil {
			cfg.Probe = cfg.Reuse.Probe()
		} else {
			cfg.Probe = NewProbeCache()
		}
	}
	space, err := vscale.PlatformSpace(p)
	if err != nil {
		return cfg, nil, nil, err
	}
	ranges := ShardRanges(space.Count(), len(runners))
	resolved := make([]ShardRunner, len(runners))
	for i, r := range runners {
		if r == nil {
			r = InProcRunner(g, p, mapper, cfg)
		}
		resolved[i] = r
	}
	return cfg, ranges, resolved, nil
}

// exploreShardedStream mirrors exploreStream over shards: seed the
// coordinator fold (broadcasting the seed as a fact), fan the ranges out,
// then replay-merge authoritatively.
func exploreShardedStream(ctx context.Context, g *taskgraph.Graph, p *arch.Platform,
	mapper MapperFunc, cfg Config, ranges []ShardRange, runners []ShardRunner,
	prune bool) (best *Design, perScaling []*Design, prunedCount int, err error) {
	fold := newScalarFold(prune)
	board := NewFactBoard()
	if prune && cfg.Strategy.withDefault() == StrategyBranchAndBound {
		nominal, seeded, err := seedIncumbent(ctx, g, p, cfg)
		if err != nil {
			return nil, nil, 0, err
		}
		if seeded {
			fold.seed(nominal)
			board.Publish(Fact{Pos: -1, Nominal: nominal})
		}
	}
	total := ranges[len(ranges)-1].Hi
	records, err := runShards(ctx, ShardRequest{NoPrune: !prune}, ranges, runners, board, total)
	if err != nil {
		return nil, nil, 0, err
	}
	perScaling, prunedCount, err = replayScalar(ctx, g, p, mapper, cfg, fold, records, prune)
	if err != nil {
		return nil, nil, 0, err
	}
	return fold.best, perScaling, prunedCount, nil
}

// ExploreSharded is the distributed counterpart of ExploreContext: the
// enumeration is partitioned into one contiguous shard per runner, shards
// run concurrently (exchanging bound facts), and the coordinator merges
// their records through the authoritative single-node replay. The chosen
// Design, perScaling list and Progress stream are byte-identical to
// ExploreContext at any shard count, runner mix and parallelism. Nil
// runner entries run their shard embedded in this process.
func ExploreSharded(ctx context.Context, g *taskgraph.Graph, p *arch.Platform,
	mapper MapperFunc, cfg Config, runners []ShardRunner) (best *Design, perScaling []*Design, err error) {
	cfg = cfg.withDefaults()
	cfg.Telemetry = nil
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, ranges, resolved, err := prepareSharded(g, p, mapper, cfg, runners)
	if err != nil {
		return nil, nil, err
	}
	prune := cfg.Strategy.withDefault() != StrategyExhaustive
	best, perScaling, prunedCount, err := exploreShardedStream(ctx, g, p, mapper, cfg, ranges, resolved, prune)
	if err != nil {
		return nil, nil, err
	}
	if prunedCount > 0 && (best == nil || !best.Eval.MeetsDeadline) {
		// Degenerate all-infeasible verdict: mirror ExploreContext's silent
		// exhaustive fallback, sharded.
		silent := cfg
		silent.Progress = nil
		best, perScaling, _, err = exploreShardedStream(ctx, g, p, mapper, silent, ranges, resolved, false)
		if err != nil {
			return nil, nil, err
		}
	}
	return best, perScaling, nil
}

// ExploreShardedPareto is the distributed counterpart of
// ExploreParetoContext, with the same byte-identity guarantee for the
// returned frontier and Progress stream.
func ExploreShardedPareto(ctx context.Context, g *taskgraph.Graph, p *arch.Platform,
	mapper MapperFunc, cfg Config, runners []ShardRunner) ([]*Design, error) {
	cfg = cfg.withDefaults()
	cfg.Telemetry = nil
	if cfg.Objectives == 0 {
		cfg.Objectives = pareto.DefaultObjectives
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cfg.DiscardPerScaling = true
	cfg, ranges, resolved, err := prepareSharded(g, p, mapper, cfg, runners)
	if err != nil {
		return nil, err
	}
	fold, err := newParetoFold(cfg)
	if err != nil {
		return nil, err
	}
	prune := cfg.Strategy.withDefault() != StrategyExhaustive
	if prune && len(cfg.WarmFrontier) > 0 && cfg.Strategy.withDefault() == StrategyBranchAndBound {
		ghosts, err := warmGhostFold(g, p, cfg)
		if err != nil {
			return nil, err
		}
		fold.ghosts = ghosts
	}
	board := NewFactBoard()
	total := ranges[len(ranges)-1].Hi
	records, err := runShards(ctx, ShardRequest{NoPrune: !prune, Pareto: true}, ranges, resolved, board, total)
	if err != nil {
		return nil, err
	}
	prunedCount, err := replayPareto(ctx, g, p, mapper, cfg, fold, records, prune)
	if err != nil {
		return nil, err
	}
	frontier := fold.frontier()
	if len(frontier) == 0 {
		// Mirror ExploreParetoContext's degenerate path: the scalar "least
		// infeasible" verdict, from the embedded walk when it is complete,
		// otherwise from a silent exhaustive sharded pass.
		if prunedCount == 0 && fold.ghosts == nil {
			return []*Design{fold.scalar.best}, nil
		}
		silent := cfg
		silent.Progress = nil
		silent.DiscardPerScaling = true
		silent.Ranked = false
		best, _, _, err := exploreShardedStream(ctx, g, p, mapper, silent, ranges, resolved, false)
		if err != nil {
			return nil, err
		}
		return []*Design{best}, nil
	}
	return frontier, nil
}
