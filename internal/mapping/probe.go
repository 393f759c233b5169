package mapping

import (
	"math/rand"
	"sort"
	"sync"

	"seadopt/internal/arch"
	"seadopt/internal/faults"
	"seadopt/internal/metrics"
	"seadopt/internal/sched"
	"seadopt/internal/search"
	"seadopt/internal/taskgraph"
)

// ProbeMoves is the hill-climb budget of the common feasibility probe.
const ProbeMoves = 400

// ProbeCache memoizes the mapper-independent feasibility probe per scaling
// combination — keyed by the combination's stable enumeration index, which
// identifies the scaling vector for a fixed platform — so a probe verdict
// computed once is shared by every Explore call driven with the same cache:
// the four experiments of Table II probe each scaling once between them, the
// ranked incumbent pass's probes are reused by the main stream, and a
// deadline sweep probes each combination once for the whole sweep. It is
// safe for concurrent use.
//
// The cache stores each combination's probe *trajectory*, not a single
// verdict. The probe's candidate sequence — LPT seed then seeded hill-climb
// moves — is a pure function of (graph, platform, scaling, Config.Seed),
// independent of the deadline: the deadline only decides where the climb
// stops (at the first candidate meeting it). Because the first deadline-
// meeting candidate is always a strict running minimum of the makespan
// sequence, recording the strict prefix minima plus the climb's resumable
// state lets the cache answer ANY deadline byte-identically to a cold probe
// at that deadline, resuming the climb deeper only when a tighter deadline
// needs it. A deadline-only sweep therefore re-probes nothing.
//
// A cache is shareable across Explore calls that agree on graph and
// platform content, Config.Seed and Config.Iterations; DeadlineSec and SER
// may vary freely between calls (a verdict is a mapping, evaluated by the
// caller under its own deadline and SER when it needs more than the
// verdict). Do not share one across different workloads.
// Explorations reach a cache through Config.Reuse; with Reuse nil, each
// call probes through a private bundle's cache.
type ProbeCache struct {
	mu      sync.Mutex
	entries map[int]*probeEntry
}

// NewProbeCache returns an empty probe cache.
func NewProbeCache() *ProbeCache {
	return &ProbeCache{entries: make(map[int]*probeEntry)}
}

// Len reports how many combinations have a cached trajectory.
func (pc *ProbeCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.entries)
}

// probeMin is one strict running minimum of a probe trajectory's makespan
// sequence: the first candidate meeting any deadline D is always the first
// minimum with tm <= D.
type probeMin struct {
	tm float64
	m  sched.Mapping // owned copy
}

// probeEntry is one combination's resumable probe trajectory. The per-entry
// mutex gives single-flight semantics: concurrent probes of the same
// combination serialize, and a resume never re-runs a recorded move, so the
// total climb work per entry equals one cold probe at the tightest deadline
// served — regardless of caller order or concurrency.
type probeEntry struct {
	mu     sync.Mutex
	seeded bool
	minima []probeMin

	// Resumable climb state; released once the move budget is exhausted.
	cur       sched.Mapping
	spare     sched.Mapping
	curTM     float64 // running minimum == minima[len-1].tm
	rng       *rand.Rand
	moves     int
	exhausted bool
}

// feasibleAtScaling is the mapper-independent deadline probe of step 1: a
// longest-processing-time balanced mapping refined by a short makespan hill
// climb, with a fixed seed derived from Config.Seed so every experiment
// sees the same verdict for the same (graph, platform, scaling, deadline).
// idx is the combination's stable enumeration index (the cache key). It
// returns the first recorded mapping that meets the deadline, nil when the
// climb found none: the winner is owned by the cache and never changes, so
// callers read it and copy what they keep. hit reports whether the verdict
// was served without running any climb work — telemetry only; verdicts
// themselves never depend on timing.
func (pc *ProbeCache) feasibleAtScaling(mc *MapContext, idx int, cfg Config) (winner sched.Mapping, hit bool, err error) {
	pc.mu.Lock()
	en, existed := pc.entries[idx]
	if !existed {
		en = &probeEntry{}
		pc.entries[idx] = en
	}
	pc.mu.Unlock()

	en.mu.Lock()
	defer en.mu.Unlock()

	deadline := cfg.DeadlineSec
	sc := mc.scratch
	if sc == nil {
		sc = newComboScratch(mc.Graph.N(), mc.Platform.Cores())
	}
	worked := false
	if !en.seeded {
		if err := en.seed(mc, sc, cfg); err != nil {
			return nil, false, err
		}
		worked = true
	}
	// Climb only as deep as the caller's deadline needs; a non-positive
	// deadline is met by the seed.
	for deadline > 0 && !en.exhausted && en.curTM > deadline {
		if err := mc.Ctx.Err(); err != nil {
			return nil, false, err
		}
		if err := en.step(mc, sc); err != nil {
			return nil, false, err
		}
		worked = true
	}
	if en.exhausted && en.cur != nil {
		en.cur, en.spare, en.rng = nil, nil, nil
	}
	hit = existed && !worked

	// Replay the cold probe's early exit: the winner for this deadline is
	// the first recorded strict minimum meeting it (the seed when the
	// deadline is unconstrained).
	if deadline <= 0 {
		return en.minima[0].m, hit, nil
	}
	for i := range en.minima {
		if en.minima[i].tm <= deadline {
			return en.minima[i].m, hit, nil
		}
	}
	return nil, hit, nil
}

// seed builds the LPT seed mapping — heaviest tasks first onto the least-
// loaded core, weighting load by the core's clock period (slow cores absorb
// less work) — records it as the trajectory's first minimum and arms the
// climb state.
func (en *probeEntry) seed(mc *MapContext, sc *comboScratch, cfg Config) error {
	g, p := mc.Graph, mc.Platform
	n := g.N()
	cores := p.Cores()

	order := sc.order[:n]
	for i := range order {
		order[i] = taskgraph.TaskID(i)
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := g.Task(order[a]).Cycles, g.Task(order[b]).Cycles
		if ca != cb {
			return ca > cb
		}
		return order[a] < order[b]
	})
	m := sc.m[:n]
	loadSec := sc.loadSec[:cores]
	freq := sc.freq[:cores]
	for c := range loadSec {
		loadSec[c] = 0
	}
	for c, s := range mc.Scaling {
		freq[c] = p.MustCoreLevel(c, s).FreqHz()
	}
	for _, t := range order {
		bestCore := 0
		for c := 1; c < cores; c++ {
			if loadSec[c] < loadSec[bestCore] {
				bestCore = c
			}
		}
		m[t] = bestCore
		loadSec[bestCore] += float64(g.Task(t).Cycles) / freq[bestCore]
	}

	// The climb needs only each candidate's T_M, so it runs on the
	// makespan-only evaluation path; a caller that needs the winner's full
	// Evaluate runs it on the returned mapping. TMSeconds is bit-identical
	// between the two paths, so the verdict sequence — and with it every
	// probe-derived decision — matches the uncached probe exactly.
	tm, _, err := mc.Eval.Makespan(m)
	if err != nil {
		return err
	}
	en.minima = append(en.minima, probeMin{tm: tm, m: m.Clone()})
	en.cur = m.Clone()
	en.spare = make(sched.Mapping, n)
	en.curTM = tm
	en.rng = rand.New(rand.NewSource(cfg.Seed ^ 0xFEA51B1E))
	en.seeded = true
	return nil
}

// step advances the climb by one move, exactly mirroring the cold probe's
// acceptance walk (accept when the candidate's makespan does not exceed the
// running minimum; record strict improvements as minima). The move only
// needs the neighbour's T_M relative to the running minimum, so it is
// scheduled with the minimum as cutoff: a neighbour whose T_M provably
// exceeds it is rejected without finishing its schedule, exactly as a
// fully scheduled worse neighbour would be.
func (en *probeEntry) step(mc *MapContext, sc *comboScratch) error {
	cores := mc.Platform.Cores()
	neighbor := search.NeighborInto(en.rng, en.spare, en.cur, cores, sc.loads)
	ntm, exceeded, err := mc.Eval.MakespanWithin(neighbor, en.curTM)
	if err != nil {
		return err
	}
	switch {
	case exceeded:
		// T_M > curTM: rejected.
	case ntm < en.curTM:
		en.minima = append(en.minima, probeMin{tm: ntm, m: neighbor.Clone()})
		en.cur, en.spare = neighbor, en.cur
		en.curTM = ntm
	default: // ntm == curTM: sideways move
		en.cur, en.spare = neighbor, en.cur
	}
	en.moves++
	if en.moves >= ProbeMoves {
		en.exhausted = true
	}
	return nil
}

// Reuse bundles the state an exploration can share with related
// explorations over the same workload: the probe trajectory cache, the
// metrics.Bounds precompute (read-only after construction) and a pool of
// evaluators (rebound per borrower via Evaluator.SetDeadline). A sweep
// allocates one Reuse for all its points; the service shares one across
// fingerprint-matching submissions.
//
// Contract: every exploration driven through one Reuse must agree on graph
// and platform *content* and on Config.Iterations, Config.Seed; DeadlineSec,
// SER and objectives may vary. Sharing across different workloads corrupts
// results. Safe for concurrent use.
type Reuse struct {
	probe *ProbeCache

	mu          sync.Mutex
	bounds      *metrics.Bounds
	boundsIters int
	pool        []*metrics.Evaluator
	poolSER     faults.SERModel
	poolIters   int
}

// NewReuse returns an empty reuse bundle with a fresh probe cache.
func NewReuse() *Reuse {
	return &Reuse{probe: NewProbeCache()}
}

// boundsFor returns the shared Bounds precompute, building it on first use.
// Bounds values are a pure function of (graph, platform, iterations)
// content, so content-equal graphs hit the same precompute.
func (r *Reuse) boundsFor(g *taskgraph.Graph, p *arch.Platform, iterations int) *metrics.Bounds {
	if iterations < 1 {
		iterations = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.bounds == nil || r.boundsIters != iterations {
		r.bounds = metrics.NewBounds(g, p, iterations)
		r.boundsIters = iterations
	}
	return r.bounds
}

// evaluator borrows a pooled evaluator compatible with cfg, rebinding its
// deadline, or builds a fresh one when the pool is empty or was built for a
// different (SER, iterations) signature. Return it with release.
func (r *Reuse) evaluator(g *taskgraph.Graph, p *arch.Platform, cfg Config) (*metrics.Evaluator, error) {
	iters := cfg.Iterations
	if iters < 1 {
		iters = 1
	}
	r.mu.Lock()
	if r.poolSER != cfg.SER || r.poolIters != iters {
		r.pool = nil
		r.poolSER, r.poolIters = cfg.SER, iters
	}
	if n := len(r.pool); n > 0 {
		e := r.pool[n-1]
		r.pool = r.pool[:n-1]
		r.mu.Unlock()
		e.SetDeadline(cfg.DeadlineSec)
		return e, nil
	}
	r.mu.Unlock()
	return metrics.NewEvaluator(g, p, cfg.SER,
		metrics.Options{Iterations: iters, DeadlineSec: cfg.DeadlineSec})
}

// release returns a borrowed evaluator to the pool; it is dropped if the
// pool's signature moved on in the meantime.
func (r *Reuse) release(e *metrics.Evaluator, cfg Config) {
	iters := cfg.Iterations
	if iters < 1 {
		iters = 1
	}
	r.mu.Lock()
	if r.poolSER == cfg.SER && r.poolIters == iters {
		r.pool = append(r.pool, e)
	}
	r.mu.Unlock()
}
