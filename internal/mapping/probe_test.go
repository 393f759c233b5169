package mapping

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/metrics"
	"seadopt/internal/sched"
	"seadopt/internal/search"
	"seadopt/internal/taskgraph"
	"seadopt/internal/vscale"
)

// coldProbeOracle replays the uncached feasibility probe verbatim — LPT seed
// onto the least-loaded core weighted by clock period, then up to ProbeMoves
// hill-climb moves accepting any candidate whose makespan does not exceed
// the running minimum, stopping at the first candidate meeting the deadline.
// It is the oracle the trajectory cache must match bit for bit at any
// deadline, in any serve order.
func coldProbeOracle(t *testing.T, g *taskgraph.Graph, p *arch.Platform,
	eval *metrics.Evaluator, scaling []int, c Config) (sched.Mapping, bool) {
	t.Helper()
	n, cores := g.N(), p.Cores()

	order := make([]taskgraph.TaskID, n)
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
	m := make(sched.Mapping, n)
	loadSec := make([]float64, cores)
	freq := make([]float64, cores)
	for core, s := range scaling {
		freq[core] = p.MustCoreLevel(core, s).FreqHz()
	}
	for _, task := range order {
		best := 0
		for core := 1; core < cores; core++ {
			if loadSec[core] < loadSec[best] {
				best = core
			}
		}
		m[task] = best
		loadSec[best] += float64(g.Task(task).Cycles) / freq[best]
	}

	tm, _, err := eval.Makespan(m)
	if err != nil {
		t.Fatal(err)
	}
	if c.DeadlineSec <= 0 || tm <= c.DeadlineSec {
		return m, true
	}
	cur, curTM := m, tm
	spare := make(sched.Mapping, n)
	loads := make([]int, cores)
	rng := rand.New(rand.NewSource(c.Seed ^ 0xFEA51B1E))
	for moves := 0; moves < ProbeMoves; moves++ {
		neighbor := search.NeighborInto(rng, spare, cur, cores, loads)
		ntm, _, err := eval.Makespan(neighbor)
		if err != nil {
			t.Fatal(err)
		}
		if ntm <= curTM {
			cur, spare = neighbor, cur
			curTM = ntm
			if curTM <= c.DeadlineSec {
				return cur, true
			}
		}
	}
	return nil, false
}

// evalFingerprint renders an Evaluation's bits for exact comparison.
func evalFingerprint(ev *metrics.Evaluation) string {
	if ev == nil {
		return "nil"
	}
	return designFingerprint(&Design{Eval: ev})
}

// TestProbeTrajectoryMatchesColdProbe is the trajectory cache's core
// contract: served at any deadline, in any order — loose to tight, tight to
// loose, unconstrained in the middle, with or without a declared horizon —
// every cached verdict and Evaluation is bit-identical to a cold probe run
// at exactly that deadline.
func TestProbeTrajectoryMatchesColdProbe(t *testing.T) {
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(16), 9)
	p := plat(3)
	space, err := vscale.PlatformSpace(p)
	if err != nil {
		t.Fatal(err)
	}
	base := cfg(0, 1)

	d0 := taskgraph.RandomDeadline(16)
	looseToTight := []float64{d0 * 2, d0, 0, d0 * 0.6, d0 * 0.3, d0 * 0.1}
	tightToLoose := []float64{d0 * 0.1, d0 * 0.3, d0 * 0.6, 0, d0, d0 * 2}

	check := func(t *testing.T, deadlines []float64, horizon float64) {
		pc := NewProbeCache()
		if horizon > 0 {
			pc.EnsureHorizon(horizon)
		}
		for _, deadline := range deadlines {
			c := base
			c.DeadlineSec = deadline
			eval, err := metrics.NewEvaluator(g, p, c.SER,
				metrics.Options{Iterations: c.Iterations, DeadlineSec: deadline})
			if err != nil {
				t.Fatal(err)
			}
			oracleEval, err := metrics.NewEvaluator(g, p, c.SER,
				metrics.Options{Iterations: c.Iterations, DeadlineSec: deadline})
			if err != nil {
				t.Fatal(err)
			}
			for idx := 0; idx < space.Count(); idx++ {
				scaling, err := space.Unrank(idx)
				if err != nil {
					t.Fatal(err)
				}
				if err := eval.Bind(scaling); err != nil {
					t.Fatal(err)
				}
				mc := &MapContext{
					Ctx:      context.Background(),
					Graph:    g,
					Platform: p,
					Scaling:  eval.Scaling(),
					Eval:     eval,
				}
				got, feasible, _, err := pc.feasibleAtScaling(mc, idx, c)
				if err != nil {
					t.Fatal(err)
				}

				if err := oracleEval.Bind(scaling); err != nil {
					t.Fatal(err)
				}
				winner, wantFeasible := coldProbeOracle(t, g, p, oracleEval, scaling, c)
				if feasible != wantFeasible {
					t.Fatalf("deadline %g combo %d: cached verdict %v, cold probe %v",
						deadline, idx, feasible, wantFeasible)
				}
				if !feasible {
					continue
				}
				want, err := oracleEval.Evaluate(winner)
				if err != nil {
					t.Fatal(err)
				}
				if gotFP, wantFP := evalFingerprint(got), evalFingerprint(want); gotFP != wantFP {
					t.Errorf("deadline %g combo %d: cached evaluation diverged:\n  cache: %s\n  cold:  %s",
						deadline, idx, gotFP, wantFP)
				}
			}
		}
	}

	t.Run("LooseToTight", func(t *testing.T) { check(t, looseToTight, 0) })
	t.Run("TightToLoose", func(t *testing.T) { check(t, tightToLoose, 0) })
	t.Run("LooseToTightWithHorizon", func(t *testing.T) { check(t, looseToTight, d0*0.1) })
}

// TestProbeCacheConcurrentSharingNoDuplicateWork is the sweep/service
// sharing contract under the race detector: two explorations running
// concurrently over one shared ProbeCache must between them do exactly the
// probe climb work of a single cold run at the tighter deadline — a verdict
// computed for one run is never recomputed for the other. Eval.Makespan is
// called only by the probe, so the summed Makespans telemetry counts the
// climb work exactly.
func TestProbeCacheConcurrentSharingNoDuplicateWork(t *testing.T) {
	g := taskgraph.MPEG2()
	p := plat(4)
	mk := func(deadline float64) Config {
		c := cfg(deadline, taskgraph.MPEG2Frames)
		c.SearchMoves = 80
		c.Strategy = StrategyExhaustive // probes every combination: deterministic probe set
		c.Parallelism = 4
		return c
	}
	loose := mk(taskgraph.MPEG2Deadline * 1.5)
	tight := mk(taskgraph.MPEG2Deadline * 0.8)

	runOne := func(c Config, reuse *Reuse) (string, metrics.EvalStats) {
		c.Reuse = reuse
		c.Telemetry = NewTelemetry()
		best, err := Explore(g, p, SEAMapper(c), c)
		if err != nil {
			t.Fatal(err)
		}
		return designFingerprint(best), c.Telemetry.Stats().Eval
	}

	// Reference: each deadline cold and solo, plus the probe work of one
	// cold run at the tighter deadline (the deepest climb any entry needs).
	soloLoose, _ := runOne(loose, NewReuse())
	soloTight, coldStats := runOne(tight, NewReuse())

	shared := NewReuse()
	cfgs := [2]Config{loose, tight}
	tels := [2]*Telemetry{NewTelemetry(), NewTelemetry()}
	fps := [2]string{}
	var wg sync.WaitGroup
	for i := range cfgs {
		cfgs[i].Reuse = shared
		cfgs[i].Telemetry = tels[i]
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			best, err := Explore(g, p, SEAMapper(cfgs[i]), cfgs[i])
			if err != nil {
				t.Error(err)
				return
			}
			fps[i] = designFingerprint(best)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if fps[0] != soloLoose {
		t.Errorf("shared-cache loose design diverged from solo run:\n  shared: %s\n  solo:   %s", fps[0], soloLoose)
	}
	if fps[1] != soloTight {
		t.Errorf("shared-cache tight design diverged from solo run:\n  shared: %s\n  solo:   %s", fps[1], soloTight)
	}

	combined := tels[0].Stats().Eval.Makespans + tels[1].Stats().Eval.Makespans
	if want := coldStats.Makespans; combined != want {
		t.Errorf("shared probe climb work: %d makespan evaluations across both runs, want exactly one cold tight-deadline run's %d",
			combined, want)
	}

	// Every combination has exactly one cached trajectory between the runs.
	if want := 15; shared.Probe().Len() != want {
		t.Errorf("shared cache holds %d trajectories, want %d", shared.Probe().Len(), want)
	}
}
