package metrics

import (
	"fmt"
	"math"

	"seadopt/internal/arch"
	"seadopt/internal/faults"
	"seadopt/internal/registers"
	"seadopt/internal/sched"
	"seadopt/internal/taskgraph"
)

// Evaluator is the reusable form of Evaluate: it pins a (graph, platform)
// pair — and, after Bind, a scaling vector — and amortizes every
// per-evaluation allocation across calls. The mapper searches score
// thousands of candidate mappings per scaling combination; with an
// Evaluator each of those calls reuses
//
//   - the list scheduler's agenda, ready pools and output arrays
//     (sched.Scheduler),
//   - a bitset register-pressure profile: task footprints are compiled once
//     into word-packed bitmasks over the inventory (registers.Profile), so
//     the per-core R_i of eq. (8) is a handful of ORs and popcounts instead
//     of map unions,
//   - the per-core metric rows and utilization scratch of the Evaluation
//     itself.
//
// Evaluation comes in two stages. Score is what a mapper's objective
// reads for every candidate: T_M, R, Γ and the deadline verdict. Evaluate
// adds the report of the design a mapper returns: the full schedule with
// its eq. (7) billing, the per-core rows and the eq. (5) power.
//
// The *Evaluation returned by Evaluate is BORROWED: it is valid only until
// the next Evaluate or Bind call on this Evaluator. Callers that keep an
// evaluation (an incumbent in a search, a per-scaling design) must Clone it.
// The package-level Evaluate wrapper preserves the old owned-result
// contract.
//
// An Evaluator is not safe for concurrent use; give each worker its own.
type Evaluator struct {
	g   *taskgraph.Graph
	p   *arch.Platform
	ser faults.SERModel
	opt Options
	sch *sched.Scheduler

	// Graph-constant register pressure profile.
	prof *registers.Profile

	// Per-core scratch.
	coreMask    [][]uint64
	coreLoads   []int
	coreRegBits []int64
	util        []float64

	// Bound per-scaling context.
	bound        bool
	lambdaSec    []float64
	lambdaCyc    []float64
	changed      []int // BindDelta scratch
	nominalHz    float64
	baselineBits int64

	// Last-evaluation context for EvaluateDelta.
	haveEval bool
	lastM    sched.Mapping

	stats EvalStats

	ev Evaluation
}

// EvalStats counts the work an Evaluator has done since construction. The
// counters are observe-only — they never influence an evaluation — and are
// plain fields because an Evaluator is single-goroutine by contract;
// aggregate across workers with Merge.
type EvalStats struct {
	// Evaluations counts candidate evaluations: one per Score or Evaluate
	// call and per EvaluateDelta re-schedule. A mapper scores each
	// candidate once and evaluates the design it returns once more.
	Evaluations int64 `json:"evaluations"`
	// Makespans counts makespan-only evaluations (the probe fast path).
	Makespans int64 `json:"makespans"`
	// MakespanDispatches counts the tasks those evaluations dispatched:
	// every task of a call that ran to the end, fewer of one that stopped
	// once its makespan provably passed the caller's cutoff.
	MakespanDispatches int64 `json:"makespan_dispatches"`
	// BindsFull counts first-time scaling binds (O(cores) λ derivation).
	BindsFull int64 `json:"binds_full"`
	// BindsDelta counts incremental rebinds (O(changed) λ derivation).
	BindsDelta int64 `json:"binds_delta"`
	// DeltaPatched counts EvaluateDelta calls resolved by the O(changed)
	// idle-core patch; DeltaRescheduled counts the re-schedule fallback.
	DeltaPatched     int64 `json:"delta_patched"`
	DeltaRescheduled int64 `json:"delta_rescheduled"`
}

// Merge accumulates other into s.
func (s *EvalStats) Merge(other EvalStats) {
	s.Evaluations += other.Evaluations
	s.Makespans += other.Makespans
	s.MakespanDispatches += other.MakespanDispatches
	s.BindsFull += other.BindsFull
	s.BindsDelta += other.BindsDelta
	s.DeltaPatched += other.DeltaPatched
	s.DeltaRescheduled += other.DeltaRescheduled
}

// Sub returns the counter difference s - base: the work done since base was
// snapshotted. Pooled evaluators accumulate counters across borrowers, so a
// borrower attributes only its own delta to telemetry.
func (s EvalStats) Sub(base EvalStats) EvalStats {
	return EvalStats{
		Evaluations:        s.Evaluations - base.Evaluations,
		Makespans:          s.Makespans - base.Makespans,
		MakespanDispatches: s.MakespanDispatches - base.MakespanDispatches,
		BindsFull:          s.BindsFull - base.BindsFull,
		BindsDelta:         s.BindsDelta - base.BindsDelta,
		DeltaPatched:       s.DeltaPatched - base.DeltaPatched,
		DeltaRescheduled:   s.DeltaRescheduled - base.DeltaRescheduled,
	}
}

// Stats snapshots the evaluator's work counters.
func (e *Evaluator) Stats() EvalStats { return e.stats }

// NewEvaluator builds an evaluator for g on p under the given SER model and
// options. Bind must be called before Evaluate.
func NewEvaluator(g *taskgraph.Graph, p *arch.Platform, ser faults.SERModel, opt Options) (*Evaluator, error) {
	if err := ser.Validate(); err != nil {
		return nil, err
	}
	if opt.Iterations < 1 {
		opt.Iterations = 1
	}
	n := g.N()
	cores := p.Cores()
	prof := registers.NewProfile(g.Inventory(), n, func(t int) registers.Set {
		return g.Task(taskgraph.TaskID(t)).Registers
	})
	words := prof.Words()
	coreMask := make([][]uint64, cores)
	coreBacking := make([]uint64, cores*words)
	for c := 0; c < cores; c++ {
		coreMask[c] = coreBacking[c*words : (c+1)*words : (c+1)*words]
	}
	e := &Evaluator{
		g:            g,
		p:            p,
		ser:          ser,
		opt:          opt,
		sch:          sched.NewScheduler(g, p),
		prof:         prof,
		coreMask:     coreMask,
		coreLoads:    make([]int, cores),
		coreRegBits:  make([]int64, cores),
		util:         make([]float64, cores),
		lambdaSec:    make([]float64, cores),
		lambdaCyc:    make([]float64, cores),
		changed:      make([]int, 0, cores),
		nominalHz:    p.NominalHz(),
		baselineBits: p.BaselineBits(),
		lastM:        make(sched.Mapping, 0, n),
	}
	e.ev.PerCore = make([]CoreMetrics, cores)
	return e, nil
}

// Graph returns the pinned task graph.
func (e *Evaluator) Graph() *taskgraph.Graph { return e.g }

// Platform returns the pinned platform.
func (e *Evaluator) Platform() *arch.Platform { return e.p }

// Profile returns the graph's compiled register footprints. It is
// read-only and may be shared.
func (e *Evaluator) Profile() *registers.Profile { return e.prof }

// Bind pins the scaling vector for subsequent Evaluate calls, precomputing
// the per-core λ rates. It invalidates any borrowed Evaluation.
//
// A rebind diffs against the current vector and re-derives the frequency
// and λ rates of the changed cores only — each rate is a pure per-core
// function of the operating point, so the delta path is bit-identical to a
// full bind. Successive vectors of a combination stream differ in a few
// coefficients, making the rebind O(changed) transcendental math instead of
// O(cores).
func (e *Evaluator) Bind(scaling []int) error {
	if !e.bound {
		if err := e.sch.Bind(scaling); err != nil {
			return err
		}
		e.bound = true
		e.haveEval = false
		e.stats.BindsFull++
		return e.rebindLambdas(nil)
	}
	changed, err := e.sch.BindDelta(scaling, e.changed[:0])
	e.changed = changed[:0]
	if err != nil {
		return err
	}
	e.haveEval = false
	e.stats.BindsDelta++
	return e.rebindLambdas(changed)
}

// rebindLambdas re-derives the per-core λ rates for the given cores (nil
// means all).
func (e *Evaluator) rebindLambdas(cores []int) error {
	s := e.sch.Scaling()
	if cores == nil {
		for c := range s {
			e.bindLambda(c, s[c])
		}
		return nil
	}
	for _, c := range cores {
		e.bindLambda(c, s[c])
	}
	return nil
}

func (e *Evaluator) bindLambda(c, s int) {
	level := e.p.MustCoreLevel(c, s)
	e.lambdaSec[c] = e.ser.RatePerSec(level.Vdd)
	e.lambdaCyc[c] = e.ser.RatePerCycle(level.Vdd, level.FreqHz())
}

// Scaling returns the bound scaling vector. The slice is shared; do not
// mutate.
func (e *Evaluator) Scaling() []int { return e.sch.Scaling() }

// SetDeadline rebinds the deadline the evaluator verdicts against, keeping
// every precomputed structure: the deadline feeds only the MeetsDeadline
// comparisons, so a re-deadlined evaluator is bit-identical to one freshly
// constructed with the new value. This is what lets a batch sweep reuse one
// evaluator across its deadline points instead of rebuilding per point.
// The borrowed Evaluation of any previous Evaluate is invalidated (its
// DeadlineSec/MeetsDeadline fields reflect the old deadline), so a
// subsequent EvaluateDelta is an error until the next full Evaluate.
func (e *Evaluator) SetDeadline(d float64) {
	if e.opt.DeadlineSec == d {
		return
	}
	e.opt.DeadlineSec = d
	e.haveEval = false
}

// Evaluate schedules m at the bound scaling and evaluates the design point
// against eqs. (3), (5), (7), (8). The result is borrowed; see the type
// comment.
func (e *Evaluator) Evaluate(m sched.Mapping) (*Evaluation, error) {
	return e.evaluate(m, false)
}

// EvaluateDelta re-evaluates the mapping of the most recent Evaluate call
// after moving the bound scaling from prev to next. prev must equal the
// currently bound vector (the caller names both ends of the move
// explicitly, so a stale evaluator is an error rather than a silent
// mis-evaluation). Only the changed cores' frequency and λ terms are
// re-derived; the mapping-dependent register-pressure profile — which
// scaling cannot change — is reused outright. When no changed core hosts a
// task the schedule provably cannot move either (idle cores never appear
// as an endpoint of a task or a cross-core token, and their power and Γ
// terms are exactly zero at every level), so the borrowed Evaluation is
// patched in O(changed); otherwise the schedule is recomputed. Either way
// the result is bit-identical to a full Bind(next) + Evaluate(mapping).
//
// The returned Evaluation is borrowed under the usual contract, and the
// evaluator is left bound to next.
func (e *Evaluator) EvaluateDelta(prev, next []int) (*Evaluation, error) {
	if !e.bound || !e.haveEval {
		return nil, fmt.Errorf("metrics: EvaluateDelta called before Evaluate")
	}
	cur := e.sch.Scaling()
	if len(prev) != len(cur) {
		return nil, fmt.Errorf("metrics: EvaluateDelta prev has %d entries, platform has %d cores", len(prev), len(cur))
	}
	for c := range prev {
		if prev[c] != cur[c] {
			return nil, fmt.Errorf("metrics: EvaluateDelta prev %v does not match the bound scaling %v", prev, cur)
		}
	}
	changed, err := e.sch.BindDelta(next, e.changed[:0])
	e.changed = changed[:0]
	if err != nil {
		return nil, err
	}
	scheduleSafe := true
	for _, c := range changed {
		e.bindLambda(c, next[c])
		if e.coreLoads[c] > 0 {
			scheduleSafe = false
		}
	}
	if !scheduleSafe {
		// A loaded core moved: timing can change, so re-schedule — but the
		// register-pressure profile of the unchanged mapping is reused.
		e.stats.DeltaRescheduled++
		return e.evaluate(e.lastM, true)
	}
	e.stats.DeltaPatched++
	// Every changed core is idle under the last mapping: the schedule, the
	// power sum (α = 0 terms are exactly zero at any level) and every Γ
	// term are untouched; only the idle cores' λ rows need patching.
	for _, c := range changed {
		cm := &e.ev.PerCore[c]
		cm.LambdaPerSec = e.lambdaSec[c]
		cm.Lambda = e.lambdaCyc[c]
	}
	return &e.ev, nil
}

// Makespan schedules m at the bound scaling and returns only the pipelined
// makespan T_M and its deadline verdict, skipping the register-pressure,
// Γ and power pipeline entirely. The value is bit-identical to the
// TMSeconds/MeetsDeadline an Evaluate of the same mapping would produce —
// same scheduler, same arithmetic — at roughly the cost of the schedule
// alone, which is what feasibility probes that discard everything but the
// verdict want. It is MakespanWithin with no cutoff. Like Evaluate, it
// reuses (and therefore invalidates) the scheduler's borrowed buffers: a
// subsequent EvaluateDelta is an error until the next full Evaluate.
func (e *Evaluator) Makespan(m sched.Mapping) (tmSeconds float64, meetsDeadline bool, err error) {
	tm, _, err := e.MakespanWithin(m, math.Inf(1))
	if err != nil {
		return 0, false, err
	}
	return tm, e.meets(tm), nil
}

// MakespanWithin is Makespan for callers that only need to compare T_M
// against cutoff, such as a hill climb against its running minimum.
// exceeded reports exactly T_M > cutoff; when it is false, tmSeconds is
// bit-identical to Evaluate's TMSeconds, and when it is true, tmSeconds is
// only a value above cutoff, at most T_M·(1+1e-9).
//
// With Iterations ≤ 1, T_M is the plain makespan, so the schedule skips the
// eq. (7) busy-cycle billing and stops as soon as the makespan provably
// exceeds cutoff (sched.Scheduler.MakespanWithin). With Iterations > 1 the
// pipelined T_M needs the bottleneck core's billed busy time, so the full
// schedule runs and cutoff only sets exceeded. Every call counts in
// EvalStats.Makespans, and the tasks it dispatched in
// EvalStats.MakespanDispatches.
func (e *Evaluator) MakespanWithin(m sched.Mapping, cutoff float64) (tmSeconds float64, exceeded bool, err error) {
	if !e.bound {
		return 0, false, fmt.Errorf("metrics: Makespan called before Bind")
	}
	e.stats.Makespans++
	e.haveEval = false
	if tmSeconds, exceeded, err = e.makespan(m, cutoff); err != nil {
		return 0, false, err
	}
	e.stats.MakespanDispatches += int64(e.sch.Dispatched())
	return tmSeconds, exceeded, nil
}

// makespan schedules m and returns its T_M and whether it exceeds cutoff,
// as MakespanWithin describes.
func (e *Evaluator) makespan(m sched.Mapping, cutoff float64) (tm float64, exceeded bool, err error) {
	if e.opt.Iterations <= 1 {
		return e.sch.MakespanWithin(m, cutoff)
	}
	s, err := e.sch.Schedule(m)
	if err != nil {
		return 0, false, err
	}
	tm = s.PipelinedMakespanSeconds(e.opt.Iterations)
	return tm, tm > cutoff, nil
}

// Score is the part of an evaluation that a mapper's objective reads: T_M,
// R, Γ and the deadline verdict, each bit-identical to the same field of
// Evaluate's Evaluation of the same mapping.
type Score struct {
	TMSeconds     float64 // deadline-relevant T_M (pipelined if Iterations>1)
	TotalRegBits  int64   // R = Σ_i R_i, eq. (8)
	Gamma         float64 // eq. (3), expected SEUs experienced
	MeetsDeadline bool
}

// Score schedules m at the bound scaling and returns its T_M, R, Γ and
// deadline verdict without the report Evaluate adds (per-core rows,
// utilization, power). With Iterations ≤ 1 the schedule skips the eq. (7)
// billing, as Makespan does; with Iterations > 1 the pipelined T_M needs
// the billed busy time, so the full schedule runs.
//
// Every call counts in EvalStats.Evaluations. Like Makespan, it reuses the
// scheduler's borrowed buffers: a subsequent EvaluateDelta is an error
// until the next full Evaluate.
func (e *Evaluator) Score(m sched.Mapping) (Score, error) {
	if !e.bound {
		return Score{}, fmt.Errorf("metrics: Score called before Bind")
	}
	e.stats.Evaluations++
	e.haveEval = false
	tm, _, err := e.makespan(m, math.Inf(1))
	if err != nil {
		return Score{}, err
	}
	sc := Score{TMSeconds: tm, MeetsDeadline: e.meets(tm)}
	e.profile(m)
	for c := range e.coreLoads {
		rb, _, _, g := e.coreGamma(c, tm)
		sc.TotalRegBits += rb
		sc.Gamma += g
	}
	return sc, nil
}

// profile sets the per-core task loads of m and their register pressure:
// OR the footprint bitmasks of the tasks on each core, then sum the widths
// of the set bits (eq. 8).
func (e *Evaluator) profile(m sched.Mapping) {
	for c, row := range e.coreMask {
		e.coreLoads[c] = 0
		clear(row)
	}
	for t, c := range m {
		e.coreLoads[c]++
		e.prof.Or(e.coreMask[c], t)
	}
	for c, row := range e.coreMask {
		var rb int64
		if e.coreLoads[c] > 0 {
			rb = e.prof.Bits(row)
		}
		e.coreRegBits[c] = rb
	}
}

// coreGamma returns core c's eq. (3) term over a run of T_M tm, with its
// inputs: allocated register state persists for the whole run, so a loaded
// core exposes its registers and baseline storage for tm and an idle core
// nothing. Score and Evaluate both sum it in core order.
func (e *Evaluator) coreGamma(c int, tm float64) (regBits, baselineBits int64, exposureSec, gamma float64) {
	if e.coreLoads[c] > 0 {
		regBits, baselineBits, exposureSec = e.coreRegBits[c], e.baselineBits, tm
	}
	return regBits, baselineBits, exposureSec, float64(regBits+baselineBits) * exposureSec * e.lambdaSec[c]
}

// meets is the deadline verdict of a T_M.
func (e *Evaluator) meets(tm float64) bool {
	return e.opt.DeadlineSec <= 0 || tm <= e.opt.DeadlineSec
}

// evaluate is the shared implementation of Evaluate and EvaluateDelta's
// re-schedule path. With reuseProfile set, m is the mapping of the previous
// call and the per-core load counts and register-pressure popcounts are
// reused instead of recomputed.
func (e *Evaluator) evaluate(m sched.Mapping, reuseProfile bool) (*Evaluation, error) {
	if !e.bound {
		return nil, fmt.Errorf("metrics: Evaluate called before Bind")
	}
	e.stats.Evaluations++
	e.haveEval = false
	s, err := e.sch.Schedule(m)
	if err != nil {
		return nil, err
	}

	ev := &e.ev
	ev.Schedule = s
	ev.MakespanSec = s.MakespanSeconds()
	ev.DeadlineSec = e.opt.DeadlineSec
	ev.TMSeconds = s.PipelinedMakespanSeconds(e.opt.Iterations)
	ev.TMCycles = ev.TMSeconds * e.nominalHz
	ev.TotalRegBits = 0
	ev.Gamma = 0
	ev.PowerW = 0

	if !reuseProfile {
		// The profile depends only on the mapping, so EvaluateDelta's
		// re-schedule path keeps it.
		e.profile(m)
		e.lastM = append(e.lastM[:0], m...)
	}

	horizon := ev.TMSeconds
	for c := range ev.PerCore {
		cm := &ev.PerCore[c]
		*cm = CoreMetrics{
			Core:         c,
			BusyCycles:   s.BusyCycles(c),
			BusySec:      s.BusySeconds(c),
			LambdaPerSec: e.lambdaSec[c],
			Lambda:       e.lambdaCyc[c],
		}
		if horizon > 0 {
			if u := cm.BusySec / horizon; u > 1 {
				cm.Utilization = 1
			} else {
				cm.Utilization = u
			}
		}
		e.util[c] = cm.Utilization
		cm.RegBits, cm.BaselineBits, cm.ExposureSec, cm.Gamma = e.coreGamma(c, ev.TMSeconds)
		ev.TotalRegBits += cm.RegBits
		ev.Gamma += cm.Gamma
	}

	pw, err := e.p.DynamicPower(s.Scaling, e.util)
	if err != nil {
		return nil, err
	}
	ev.PowerW = pw
	ev.MeetsDeadline = e.meets(ev.TMSeconds)
	e.haveEval = true
	return ev, nil
}

// Clone returns an independent deep copy of the evaluation, safe to retain
// after the Evaluator that produced it moves on.
func (ev *Evaluation) Clone() *Evaluation {
	out := *ev
	if ev.Schedule != nil {
		out.Schedule = ev.Schedule.Clone()
	}
	out.PerCore = append([]CoreMetrics(nil), ev.PerCore...)
	return &out
}
