package mapping

// Distributed sharded exploration.
//
// The combination space is a totally ordered enumeration with O(1)
// Rank/Unrank (vscale.Space), so it partitions into contiguous [Lo,Hi)
// shards that peer workers explore independently. Each worker runs the
// ordinary streaming core restricted to its range, with the ordinary scalar
// or Pareto fold, and returns a compact per-combination record stream (skip
// verdicts plus realized mappings); the coordinator then REPLAYS the exact
// single-node fold in global rank order, treating the records as an
// accelerator, not an authority:
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
// the threshold a shard starts from can only save work, never change the
// answer.
//
// Every shard, embedded or remote, takes one self-contained ShardRequest
// and shares nothing while it runs. A scalar shard starts from the
// coordinator's standing dominance threshold (ShardRequest.Threshold: the
// ranked pass's seed, the lowest nominal power of any probe-feasible
// combination, which no shard can lower) and otherwise prunes against its
// own range; a Pareto shard prunes against its own frontier only.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"seadopt/internal/arch"
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
	// Threshold is the coordinator's standing scalar dominance threshold,
	// a probe-feasible combination's nominal power; a scalar shard seeds its
	// fold with it. 0 means none.
	Threshold float64 `json:"threshold,omitempty"`
}

// ShardResult is a worker's record stream: one entry per position of the
// request's range (Records[i] resolves rank Range.Lo+i), nil for
// bound-pruned positions.
type ShardResult struct {
	Records []*ShardRecord `json:"records"`
}

// ShardRunner executes one shard request, in this process or on an HTTP
// peer.
type ShardRunner func(ctx context.Context, req ShardRequest) (*ShardResult, error)

// InProcRunner returns a ShardRunner executing shards embedded in the
// calling process over the given workload; cfg's Reuse bundle, when set, is
// shared with the coordinator (the sharded entry points always set one).
func InProcRunner(g *taskgraph.Graph, p *arch.Platform, mapper MapperFunc, cfg Config) ShardRunner {
	return func(ctx context.Context, req ShardRequest) (*ShardResult, error) {
		return ExploreShard(ctx, g, p, mapper, cfg, req)
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

// errSampledShard rejects the one strategy without a contiguous
// enumeration to partition.
var errSampledShard = errors.New("mapping: sharded exploration requires a contiguous enumeration strategy")

// ExploreShard is the worker side of the distributed exploration: it runs
// the ordinary streaming core over req.Range with the scalar or Pareto fold
// and returns the record stream for the coordinator's replay. A scalar
// shard's fold is seeded with req.Threshold, when set, and otherwise prunes
// against its own range; a Pareto shard prunes against its own frontier
// only. Progress, telemetry and ranked seeding are coordinator concerns and
// are forced off here.
func ExploreShard(ctx context.Context, g *taskgraph.Graph, p *arch.Platform,
	mapper MapperFunc, cfg Config, req ShardRequest) (*ShardResult, error) {
	if t := req.Threshold; t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, fmt.Errorf("mapping: shard threshold %v is not a finite non-negative nominal power", t)
	}
	cfg.Progress = nil
	cfg.Telemetry = nil
	cfg.DiscardPerScaling = true
	cfg.Ranked = false
	ctx, cfg, err := setup(ctx, cfg, req.Pareto)
	if err != nil {
		return nil, err
	}
	strategy := cfg.Strategy.withDefault()
	if strategy == StrategySampled {
		return nil, errSampledShard
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
	opts := coreOptions{prune: prune, source: src, records: make([]*ShardRecord, hi-lo)}
	var fold streamFold
	if req.Pareto {
		pf, err := newParetoFold(cfg)
		if err != nil {
			return nil, err
		}
		fold, opts.computeBounds = pf, true
	} else {
		sf := newScalarFold(prune, nil)
		if req.Threshold > 0 {
			sf.seed(req.Threshold)
		}
		fold, opts.computeBounds = sf, prune && cfg.DeadlineSec > 0
	}
	if _, _, err := exploreCore(ctx, g, p, mapper, cfg, fold, opts); err != nil {
		return nil, err
	}
	return &ShardResult{Records: opts.records}, nil
}

// CheckShardResult reports whether res has the shape of an answer to a
// shard over rng of the problem on graph g and platform p: one record per
// position of the range, each nil or carrying its position's enumeration
// index, and every shipped mapping placing each task of g on a core of p.
// The replay takes a well-shaped result's records as hints; a malformed
// result is refused whole.
func CheckShardResult(res *ShardResult, rng ShardRange, g *taskgraph.Graph, p *arch.Platform) error {
	if res == nil {
		return fmt.Errorf("mapping: shard [%d,%d) returned no result", rng.Lo, rng.Hi)
	}
	if want := rng.Hi - rng.Lo; len(res.Records) != want {
		return fmt.Errorf("mapping: shard [%d,%d) returned %d records, want %d",
			rng.Lo, rng.Hi, len(res.Records), want)
	}
	tasks, cores := g.N(), p.Cores()
	for j, r := range res.Records {
		switch {
		case r == nil:
		case r.Idx != rng.Lo+j:
			return fmt.Errorf("mapping: shard [%d,%d) record %d carries index %d", rng.Lo, rng.Hi, j, r.Idx)
		case r.Mapping != nil && len(r.Mapping) != tasks:
			return fmt.Errorf("mapping: shard [%d,%d) record %d maps %d tasks, graph has %d",
				rng.Lo, rng.Hi, j, len(r.Mapping), tasks)
		default:
			for task, c := range r.Mapping {
				if c < 0 || c >= cores {
					return fmt.Errorf("mapping: shard [%d,%d) record %d maps task %d to core %d outside [0,%d)",
						rng.Lo, rng.Hi, j, task, c, cores)
				}
			}
		}
	}
	return nil
}

// runShards fans base out over the ranges, one runner per range, and
// assembles the global record array (indexed by enumeration rank). A
// runner's failure or malformed result (CheckShardResult) fails the pass;
// the first real failure cancels the remaining shards.
func runShards(ctx context.Context, g *taskgraph.Graph, p *arch.Platform, base ShardRequest,
	ranges []ShardRange, runners []ShardRunner, total int) ([]*ShardRecord, error) {
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
			res, err := runners[i](wctx, req)
			if err == nil {
				err = CheckShardResult(res, ranges[i], g, p)
			}
			if err != nil {
				errs[i] = err
				cancel()
				return
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

// realizeDesign materializes the design of a position the authoritative
// replay wants to fold: re-evaluate the recorded mapping when the shard
// shipped one (bit-identical to the worker's evaluation of the same
// mapping), otherwise recompute the combination outright, never skipping
// the mapper, exactly as a pruning-free single-node worker would.
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
	d, probed, _, _, err := exploreCombo(ctx, mc, mapper, scaling, idx, cfg, nil)
	if err != nil {
		return nil, false, err
	}
	return d, probed, nil
}

// replay is the coordinator's authoritative merge: the single-node fold —
// scalar or Pareto — replayed in global rank order over the shard records,
// with exploreCore's deadline pruning and fold-time skip rule.
func replay(ctx context.Context, g *taskgraph.Graph, p *arch.Platform, mapper MapperFunc,
	cfg Config, fold streamFold, records []*ShardRecord, opts coreOptions) (perScaling []*Design, prunedCount int, err error) {
	space, err := vscale.PlatformSpace(p)
	if err != nil {
		return nil, 0, err
	}
	it := space.Iter()
	cursor := cfg.Reuse.boundsFor(g, p, cfg.Iterations).Cursor()
	wk, err := newComboWorker(g, p, cfg)
	if err != nil {
		return nil, 0, err
	}
	defer wk.close(nil)
	mc := wk.mc
	red := newReduction(cfg, fold, space.Count(), nil)
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
		if opts.computeBounds {
			o.tmLB = cursor.TMLowerBound()
			o.pruned = opts.prune && cfg.DeadlineSec > 0 && o.tmLB > cfg.DeadlineSec*(1+1e-9)
		}
		skipped := false
		if !o.pruned {
			rec := records[idx]
			if rec != nil {
				o.probed, o.probeKnown = rec.Probed, rec.ProbeKnown
			}
			skipped = opts.prune && fold.confirmSkip(&o)
			if opts.prune && !skipped && !o.probeKnown && fold.mapperSkippable() {
				// The record is a dispatch-time skip that never probed, but
				// the coordinator's dominance band disagrees — decide with
				// the probe, exactly as the single-node worker would have.
				if err := mc.bind(ctx, scaling, idx, cfg.Seed); err != nil {
					return nil, 0, err
				}
				_, feasible, _, err := cfg.Reuse.probe.feasibleAtScaling(mc, idx, cfg)
				if err != nil {
					return nil, 0, err
				}
				o.probed, o.probeKnown = feasible, true
				skipped = fold.confirmSkip(&o)
			}
			if !skipped {
				if o.design, o.probed, err = realizeDesign(ctx, mc, mapper, scaling, idx, cfg, rec); err != nil {
					return nil, 0, err
				}
				o.probeKnown = true
			}
		}
		red.resolve(pos, &o, skipped)
	}
	return red.perScaling, red.pruned, nil
}

// shardedPass returns the pass of a sharded exploration: one contiguous
// range per runner (nil runners run embedded in this process, sharing the
// coordinator's Reuse bundle), each pass fanning the ranges out and merging
// the records through the authoritative replay. Every shard request of a
// scalar pass carries the fold's standing threshold, the ranked seed and
// the only bound known before position 0; a Pareto pass sends none.
func shardedPass(g *taskgraph.Graph, p *arch.Platform, mapper MapperFunc,
	cfg Config, runners []ShardRunner) (passFunc, error) {
	if len(runners) == 0 {
		return nil, fmt.Errorf("mapping: sharded exploration needs at least one shard runner")
	}
	if cfg.Strategy.withDefault() == StrategySampled {
		return nil, errSampledShard
	}
	space, err := vscale.PlatformSpace(p)
	if err != nil {
		return nil, err
	}
	total := space.Count()
	ranges := ShardRanges(total, len(runners))
	resolved := make([]ShardRunner, len(runners))
	for i, r := range runners {
		if r == nil {
			r = InProcRunner(g, p, mapper, cfg)
		}
		resolved[i] = r
	}
	return func(ctx context.Context, g *taskgraph.Graph, p *arch.Platform, mapper MapperFunc,
		cfg Config, fold streamFold, opts coreOptions) ([]*Design, int, error) {
		req := ShardRequest{NoPrune: !opts.prune}
		switch f := fold.(type) {
		case *paretoFold:
			req.Pareto = true
		case *scalarFold:
			if nominal, seeded := f.board.threshold(); seeded {
				req.Threshold = nominal
			}
		}
		records, err := runShards(ctx, g, p, req, ranges, resolved, total)
		if err != nil {
			return nil, 0, err
		}
		return replay(ctx, g, p, mapper, cfg, fold, records, opts)
	}, nil
}

// ExploreSharded is the distributed counterpart of ExploreContext: the
// enumeration is partitioned into one contiguous shard per runner, shards
// run concurrently from the coordinator's standing threshold, and the
// coordinator merges their records through the authoritative single-node
// replay. The chosen Design, perScaling list and Progress stream are
// byte-identical to ExploreContext at any shard count, runner mix and
// parallelism. Nil runner entries run their shard embedded in this process.
func ExploreSharded(ctx context.Context, g *taskgraph.Graph, p *arch.Platform,
	mapper MapperFunc, cfg Config, runners []ShardRunner) (best *Design, perScaling []*Design, err error) {
	cfg.Telemetry = nil
	ctx, cfg, err = setup(ctx, cfg, false)
	if err != nil {
		return nil, nil, err
	}
	run, err := shardedPass(g, p, mapper, cfg, runners)
	if err != nil {
		return nil, nil, err
	}
	return exploreScalar(ctx, g, p, mapper, cfg, run)
}

// ExploreShardedPareto is the distributed counterpart of
// ExploreParetoContext, with the same byte-identity guarantee for the
// returned frontier and Progress stream.
func ExploreShardedPareto(ctx context.Context, g *taskgraph.Graph, p *arch.Platform,
	mapper MapperFunc, cfg Config, runners []ShardRunner) ([]*Design, error) {
	cfg.Telemetry = nil
	ctx, cfg, err := setup(ctx, cfg, true)
	if err != nil {
		return nil, err
	}
	run, err := shardedPass(g, p, mapper, cfg, runners)
	if err != nil {
		return nil, err
	}
	return explorePareto(ctx, g, p, mapper, cfg, run)
}
