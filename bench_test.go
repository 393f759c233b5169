package seadopt

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, each running the corresponding experiment end to end
// at a reduced (but shape-preserving) search budget, plus micro-benchmarks
// of the hot inner loops (list scheduling, design-point evaluation, the
// cycle-level simulator and the Poisson fault injector).
//
// Regenerate the paper's numbers at full budgets with:
//
//	go run ./cmd/experiments -all
//
// and see EXPERIMENTS.md for the recorded paper-vs-measured comparison.

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/expt"
	"seadopt/internal/faults"
	"seadopt/internal/mapping"
	"seadopt/internal/metrics"
	"seadopt/internal/registers"
	"seadopt/internal/sched"
	"seadopt/internal/search"
	"seadopt/internal/sim"
	"seadopt/internal/taskgraph"
)

// benchCfg is the reduced-budget configuration used by the per-experiment
// benchmarks.
func benchCfg() expt.Config {
	return expt.Config{SearchMoves: 300, AnnealMoves: 300, Seed: 2010, FaultRuns: 1}
}

// BenchmarkFig3 regenerates the 120-mapping motivation sweep of Fig. 3
// (T_M vs R trade-off and the Γ curves at s=1 and s=2).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := expt.Fig3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) != 120 {
			b.Fatal("wrong sweep size")
		}
	}
}

// BenchmarkTableII regenerates Table II: the four design-optimization
// experiments on the MPEG-2 decoder with four cores, including the
// fault-injection measurement of Γ.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := expt.TableII(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFig9 regenerates the equal-scaling comparison of Fig. 9.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := expt.Fig9(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 3 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkTableIII regenerates the architecture-allocation study of
// Table III (six applications across two to six cores).
func BenchmarkTableIII(b *testing.B) {
	cfg := benchCfg()
	cfg.SearchMoves = 100
	for i := 0; i < b.N; i++ {
		res, err := expt.TableIII(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Apps) != 6 {
			b.Fatal("wrong app count")
		}
	}
}

// BenchmarkFig10 regenerates the Exp:3-vs-Exp:4 allocation sweep of Fig. 10.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := expt.Fig10(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) != 5 {
			b.Fatal("wrong point count")
		}
	}
}

// BenchmarkFig11 regenerates the voltage-scaling-level sweep of Fig. 11.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := expt.Fig11(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) != 3 {
			b.Fatal("wrong point count")
		}
	}
}

// --- Micro-benchmarks of the inner loops ---

// BenchmarkListScheduleMPEG2 measures the event-driven list scheduler on
// the 11-task decoder (the optimizer's innermost operation).
func BenchmarkListScheduleMPEG2(b *testing.B) {
	g := taskgraph.MPEG2()
	p := arch.MustNewPlatform(4, arch.ARM7Levels3())
	m := sched.RoundRobin(g.N(), 4)
	scaling := []int{2, 2, 3, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.ListSchedule(g, p, m, scaling); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkListScheduleRandom100 measures the scheduler on the largest
// Table III workload.
func BenchmarkListScheduleRandom100(b *testing.B) {
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(100), 1)
	p := arch.MustNewPlatform(6, arch.ARM7Levels3())
	m := sched.RoundRobin(g.N(), 6)
	scaling := []int{3, 3, 3, 2, 2, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.ListSchedule(g, p, m, scaling); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMesh is the XY mesh of the bench's flagship_noc workload.
var benchMesh = arch.Interconnect{Topology: arch.TopologyMesh, BandwidthBps: 4e9, HopLatencySec: 1e-4}

// probeClimbPlatform is the flagship shape: 14 two-level and 2 four-level
// ARM7 cores, behind benchMesh when noc is set.
func probeClimbPlatform(b *testing.B, noc bool) *arch.Platform {
	b.Helper()
	types := []arch.ProcType{
		{Name: "eff", Levels: arch.ARM7Levels2()},
		{Name: "perf", Levels: arch.ARM7Levels4()},
	}
	coreTypes := make([]int, 16)
	coreTypes[14], coreTypes[15] = 1, 1
	var opts []arch.Option
	if noc {
		opts = append(opts, arch.WithInterconnect(benchMesh))
	}
	p, err := arch.NewHeterogeneousPlatform(types, coreTypes, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// probeClimb is one combination's deadline-probe climb: mapping.ProbeMoves
// neighbours drawn by search.NeighborInto, each scheduled by MakespanWithin
// against the running minimum and accepted unless it exceeds it, as the
// probe cache's climb runs them, from the probe's LPT seed.
type probeClimb struct {
	sch             *sched.Scheduler
	seed, cur, next sched.Mapping
	loads           []int
	rng             *rand.Rand
}

func newProbeClimb(b *testing.B, g *taskgraph.Graph, p *arch.Platform, scaling []int) *probeClimb {
	b.Helper()
	c := &probeClimb{
		sch:   sched.NewScheduler(g, p),
		seed:  make(sched.Mapping, g.N()),
		cur:   make(sched.Mapping, g.N()),
		next:  make(sched.Mapping, g.N()),
		loads: make([]int, p.Cores()),
		rng:   rand.New(rand.NewSource(0)),
	}
	if err := c.sch.Bind(scaling); err != nil {
		b.Fatal(err)
	}
	// LPT: heaviest task first onto the core least loaded in seconds.
	order := make([]taskgraph.TaskID, g.N())
	for i := range order {
		order[i] = taskgraph.TaskID(i)
	}
	slices.SortFunc(order, func(x, y taskgraph.TaskID) int {
		return cmp.Or(cmp.Compare(g.Task(y).Cycles, g.Task(x).Cycles), cmp.Compare(x, y))
	})
	loadSec := make([]float64, p.Cores())
	for _, t := range order {
		best := 0
		for core := range loadSec {
			if loadSec[core] < loadSec[best] {
				best = core
			}
		}
		c.seed[t] = best
		loadSec[best] += float64(g.Task(t).Cycles) / p.MustCoreLevel(best, scaling[best]).FreqHz()
	}
	return c
}

// run climbs from the seed and returns the tasks its makespan calls
// dispatched.
func (c *probeClimb) run(b *testing.B) (dispatched int) {
	copy(c.cur, c.seed)
	c.rng.Seed(1 ^ 0xFEA51B1E)
	curTM, _, err := c.sch.MakespanWithin(c.cur, math.Inf(1))
	if err != nil {
		b.Fatal(err)
	}
	dispatched += c.sch.Dispatched()
	for move := 0; move < mapping.ProbeMoves; move++ {
		nb := search.NeighborInto(c.rng, c.next, c.cur, len(c.loads), c.loads)
		tm, exceeded, err := c.sch.MakespanWithin(nb, curTM)
		if err != nil {
			b.Fatal(err)
		}
		dispatched += c.sch.Dispatched()
		if !exceeded {
			c.cur, c.next, curTM = nb, c.cur, tm
		}
	}
	return dispatched
}

// BenchmarkProbeClimb measures the step-1 deadline probe's climb, the bulk
// of a flagship solve's CPU. One op is one climb on each of four 60-task §V
// graphs (MaxWidth 16) on the flagship's 14+2-core platform at a mixed
// scaling, on the ideal fabric or behind benchMesh. Every op repeats
// the same climbs, so tasks/op (the tasks the makespan calls dispatched)
// is a fixed count of the work, equal before and after a change that
// keeps the schedules.
func BenchmarkProbeClimb(b *testing.B) {
	for _, fabric := range []string{"ideal", "noc"} {
		b.Run(fabric, func(b *testing.B) {
			p := probeClimbPlatform(b, fabric == "noc")
			scaling := make([]int, p.Cores())
			for c := range scaling {
				scaling[c] = 1 + c%2
			}
			cfg := taskgraph.DefaultRandomConfig(60)
			cfg.MaxWidth = 16
			var climbs []*probeClimb
			for seed := int64(1); seed <= 4; seed++ {
				climbs = append(climbs, newProbeClimb(b, taskgraph.MustRandom(cfg, seed), p, scaling))
			}
			dispatched := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range climbs {
					dispatched += c.run(b)
				}
			}
			b.ReportMetric(float64(dispatched)/float64(b.N), "tasks/op")
		})
	}
}

// BenchmarkListScheduleStar4096 measures one Schedule of the MaxTasks star,
// task 0 feeding the 4095 others over edges of random length, on 16 cores
// on the ideal fabric and behind benchMesh: the widest agenda a graph can
// hold, the scheduler's worst case for it.
func BenchmarkListScheduleStar4096(b *testing.B) {
	bld := taskgraph.NewBuilder("star", registers.NewInventory())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < taskgraph.MaxTasks; i++ {
		bld.AddTask(fmt.Sprintf("t%d", i), 1000*int64(1+rng.Intn(8)))
	}
	for i := 1; i < taskgraph.MaxTasks; i++ {
		bld.AddEdge(0, taskgraph.TaskID(i), 1000*int64(1+rng.Intn(16)))
	}
	g := bld.MustBuild()
	for _, fabric := range []string{"ideal", "mesh"} {
		b.Run(fabric, func(b *testing.B) {
			var opts []arch.Option
			if fabric == "mesh" {
				opts = append(opts, arch.WithInterconnect(benchMesh))
			}
			p := arch.MustNewPlatform(16, arch.ARM7Levels3(), opts...)
			sch := sched.NewScheduler(g, p)
			if err := sch.Bind(p.MaxPowerScaling()); err != nil {
				b.Fatal(err)
			}
			m := sched.RoundRobin(g.N(), p.Cores())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sch.Schedule(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvaluate measures a full analytic design-point evaluation
// (schedule + R_i unions + Γ + power), the optimizer's cost function.
func BenchmarkEvaluate(b *testing.B) {
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(60), 1)
	p := arch.MustNewPlatform(6, arch.ARM7Levels3())
	m := sched.RoundRobin(g.N(), 6)
	scaling := []int{3, 3, 3, 3, 2, 2}
	ser := faults.NewSERModel(faults.DefaultSER)
	opt := metrics.Options{Iterations: 1, DeadlineSec: taskgraph.RandomDeadline(60)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.Evaluate(g, p, m, scaling, ser, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluatorReuse measures the same design-point evaluation as
// BenchmarkEvaluate on a pinned, buffer-reusing metrics.Evaluator — the
// inner loop as the mapper searches actually drive it.
func BenchmarkEvaluatorReuse(b *testing.B) {
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(60), 1)
	p := arch.MustNewPlatform(6, arch.ARM7Levels3())
	m := sched.RoundRobin(g.N(), 6)
	scaling := []int{3, 3, 3, 3, 2, 2}
	e, err := metrics.NewEvaluator(g, p, faults.NewSERModel(faults.DefaultSER),
		metrics.Options{Iterations: 1, DeadlineSec: taskgraph.RandomDeadline(60)})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Bind(scaling); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Evaluate(m); err != nil {
			b.Fatal(err)
		}
	}
}

// bench64Workload mirrors bench64System at the internal layer for the
// evaluator micro-benchmarks: the same 120-task §V random graph on the
// 56+8-core heterogeneous platform of BENCH_scale.json.
func bench64Workload(b *testing.B) (*taskgraph.Graph, *arch.Platform) {
	b.Helper()
	cfg := taskgraph.DefaultRandomConfig(120)
	cfg.MaxWidth = 32
	g := taskgraph.MustRandom(cfg, 11)
	types := []arch.ProcType{
		{Name: "eff", Levels: arch.ARM7Levels2()},
		{Name: "perf", Levels: arch.ARM7Levels4()},
	}
	coreTypes := make([]int, 64)
	for i := 56; i < 64; i++ {
		coreTypes[i] = 1
	}
	p, err := arch.NewHeterogeneousPlatform(types, coreTypes)
	if err != nil {
		b.Fatal(err)
	}
	return g, p
}

// BenchmarkEvaluateDelta measures EvaluateDelta moving one loaded core by
// one level on the 64-core workload: a full Bind and Evaluate of the last
// mapping at each move.
func BenchmarkEvaluateDelta(b *testing.B) {
	g, p := bench64Workload(b)
	e, err := metrics.NewEvaluator(g, p, faults.NewSERModel(faults.DefaultSER),
		metrics.Options{Iterations: 1, DeadlineSec: taskgraph.RandomDeadline(120) / 15})
	if err != nil {
		b.Fatal(err)
	}
	prev := p.MinPowerScaling()
	next := append([]int(nil), prev...)
	next[0] = prev[0] - 1 // one level faster on core 0
	if err := e.Bind(prev); err != nil {
		b.Fatal(err)
	}
	if _, err := e.Evaluate(sched.RoundRobin(g.N(), 64)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.EvaluateDelta(prev, next); err != nil {
			b.Fatal(err)
		}
		prev, next = next, prev
	}
}

// BenchmarkSimulatorPipelined measures the cycle-level DES simulator
// running the full 437-frame MPEG-2 pipeline (4807 task instances).
func BenchmarkSimulatorPipelined(b *testing.B) {
	g := taskgraph.MPEG2()
	p := arch.MustNewPlatform(4, arch.ARM7Levels3())
	m := sched.Mapping{0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 3}
	scaling := []int{2, 2, 3, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(g, p, m, scaling, sim.Config{Iterations: taskgraph.MPEG2Frames}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultInjection measures one Poisson SEU campaign over the
// decoder's liveness trace.
func BenchmarkFaultInjection(b *testing.B) {
	g := taskgraph.MPEG2()
	p := arch.MustNewPlatform(4, arch.ARM7Levels3())
	m := sched.Mapping{0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 3}
	r, err := sim.Run(g, p, m, []int{2, 2, 3, 2}, sim.Config{Iterations: 1})
	if err != nil {
		b.Fatal(err)
	}
	campaign, err := r.Campaign(faults.NewSERModel(faults.DefaultSER), sim.ExposureConservative)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := campaign.Run(rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInitialSEAMapping measures the Fig. 6 constructive mapper.
func BenchmarkInitialSEAMapping(b *testing.B) {
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(60), 1)
	p := arch.MustNewPlatform(6, arch.ARM7Levels3())
	cfg := mapping.Config{
		SER:         faults.NewSERModel(faults.DefaultSER),
		DeadlineSec: taskgraph.RandomDeadline(60),
		Iterations:  1,
		Seed:        1,
	}
	scaling := []int{3, 3, 3, 3, 2, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapping.InitialSEAMapping(g, p, scaling, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeMPEG2 measures the full Fig. 4 design loop on the
// decoder at a small search budget.
func BenchmarkOptimizeMPEG2(b *testing.B) {
	sys, err := NewARM7System(MPEG2(), 4, 3)
	if err != nil {
		b.Fatal(err)
	}
	opts := OptimizeOptions{
		DeadlineSec:      MPEG2Deadline,
		StreamIterations: MPEG2Frames,
		SearchMoves:      200,
		Seed:             1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Optimize(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStrategy runs the full design loop under one exploration strategy —
// the exhaustive-vs-branch-and-bound pairs below are the BENCH_prune.json
// measurement (see that file for the recorded numbers).
func benchStrategy(b *testing.B, g *Graph, cores int, deadline float64, iters int, strategy ExploreStrategy) {
	b.Helper()
	sys, err := NewARM7System(g, cores, 3)
	if err != nil {
		b.Fatal(err)
	}
	benchSystem(b, sys, OptimizeOptions{
		DeadlineSec:      deadline,
		StreamIterations: iters,
		SearchMoves:      200,
		Seed:             1,
		Strategy:         strategy,
	})
}

// benchSystem measures the full design loop on an assembled system.
func benchSystem(b *testing.B, sys *System, opts OptimizeOptions) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Optimize(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDist16Core is the BENCH_dist.json measurement: the 16-core §V
// workload explored single-node versus fanned out over two contiguous
// shards (both embedded in this process, run concurrently, merged by the
// coordinator's streaming pass over their records). Per-shard parallelism
// is pinned to 1 so the SingleNode/TwoShard ratio isolates the sharding
// machinery itself: on a multi-core host the two shards overlap and the
// ratio approaches 2, and on any host it must not fall materially below 1
// — the records, the shard requests and the merge pass, which evaluates
// each shipped mapping and never re-searches, are required to stay
// overhead-neutral relative to a single-node walk of the same exhaustive
// enumeration.
func BenchmarkDist16Core(b *testing.B) {
	g, dl := bench16Graph(b)
	sys, err := NewARM7System(g, 16, 3)
	if err != nil {
		b.Fatal(err)
	}
	opts := OptimizeOptions{
		DeadlineSec: dl,
		SearchMoves: 200,
		Seed:        1,
		Strategy:    StrategyExhaustive,
		Parallelism: 1,
	}
	b.Run("SingleNode", func(b *testing.B) {
		benchSystem(b, sys, opts)
	})
	b.Run("TwoShard", func(b *testing.B) {
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.OptimizeShardedContext(ctx, opts, make([]ShardRunner, 2)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExploreMPEG2Exhaustive / ...BnB compare the strategies on the
// paper platform (4 cores × 3 levels, 15 combinations).
func BenchmarkExploreMPEG2Exhaustive(b *testing.B) {
	benchStrategy(b, MPEG2(), 4, MPEG2Deadline, MPEG2Frames, StrategyExhaustive)
}

func BenchmarkExploreMPEG2BnB(b *testing.B) {
	benchStrategy(b, MPEG2(), 4, MPEG2Deadline, MPEG2Frames, StrategyBranchAndBound)
}

// bench16Graph is the large-platform workload: a §V random graph on
// 16 cores × 3 levels — C(18,16) = 153 combinations, >10× the MPEG-2
// space. The deadline sits at 50% of the paper's default so the slowest
// scalings are bound-pruned, the first feasible design lands a fifth of
// the way in, and everything pricier is dominance-skipped.
func bench16Graph(b *testing.B) (*Graph, float64) {
	g, err := RandomGraph(DefaultRandomGraphConfig(40), 7)
	if err != nil {
		b.Fatal(err)
	}
	return g, RandomGraphDeadline(40) * 0.5
}

func BenchmarkExplore16CoreExhaustive(b *testing.B) {
	g, dl := bench16Graph(b)
	benchStrategy(b, g, 16, dl, 1, StrategyExhaustive)
}

func BenchmarkExplore16CoreBnB(b *testing.B) {
	g, dl := bench16Graph(b)
	benchStrategy(b, g, 16, dl, 1, StrategyBranchAndBound)
}

// BenchmarkBaseline16Core runs the 16-core workload through the
// MinimizeRegTime baseline as seadoptd runs a baseline job by default:
// plain (unranked) branch-and-bound, the default search budget, and the
// simulated-annealing mapper, which polls its context between moves.
func BenchmarkBaseline16Core(b *testing.B) {
	g, dl := bench16Graph(b)
	sys, err := NewARM7System(g, 16, 3)
	if err != nil {
		b.Fatal(err)
	}
	opts := OptimizeOptions{
		DeadlineSec:      dl,
		StreamIterations: 1,
		Seed:             1,
		Strategy:         StrategyBranchAndBound,
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.OptimizeBaselineContext(ctx, MinimizeRegTime, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// bench64System is the 64-core flagship workload of BENCH_scale.json: a
// heterogeneous platform of 56 two-level efficiency cores plus 8 four-level
// performance cores (C(57,1)·C(11,3) = 57·165 = 9405 combinations, 61× the
// 16-core space) running a 120-task §V random graph widened to 32-task
// layers so the workload can actually occupy the platform. The deadline
// (1/15 of the paper's default) sits between the all-fast and all-slow
// makespan lower bounds, so the slow tail of the enumeration is
// bound-pruned and the surviving prefix is dominance-skipped once the first
// feasible design lands.
func bench64System(b *testing.B) (*System, OptimizeOptions) {
	b.Helper()
	cfg := DefaultRandomGraphConfig(120)
	cfg.MaxWidth = 32
	g, err := RandomGraph(cfg, 11)
	if err != nil {
		b.Fatal(err)
	}
	types := []ProcType{
		{Name: "eff", Levels: arch.ARM7Levels2()},
		{Name: "perf", Levels: arch.ARM7Levels4()},
	}
	coreTypes := make([]int, 64)
	for i := 56; i < 64; i++ {
		coreTypes[i] = 1
	}
	p, err := NewHeterogeneousPlatform(types, coreTypes)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := NewSystem(g, p)
	if err != nil {
		b.Fatal(err)
	}
	return sys, OptimizeOptions{
		DeadlineSec: RandomGraphDeadline(120) / 15,
		SearchMoves: 200,
		Seed:        1,
	}
}

func BenchmarkExplore64CoreExhaustive(b *testing.B) {
	sys, opts := bench64System(b)
	opts.Strategy = StrategyExhaustive
	benchSystem(b, sys, opts)
}

func BenchmarkExplore64CoreBnB(b *testing.B) {
	sys, opts := bench64System(b)
	opts.Strategy = StrategyBranchAndBound
	benchSystem(b, sys, opts)
}

// BenchmarkExplore64CoreBnBRanked adds the ranked incumbent-seeding pass:
// a sequential ascending-nominal walk locates the eventual winner's power
// before the lexicographic stream starts, so every pricier combination is
// dominance-skipped at dispatch instead of mapped. Same design,
// byte-identical to exhaustive.
func BenchmarkExplore64CoreBnBRanked(b *testing.B) {
	sys, opts := bench64System(b)
	opts.Strategy = StrategyBranchAndBound
	opts.Ranked = true
	benchSystem(b, sys, opts)
}

// BenchmarkExplore64CoreNoC is the flagship workload behind a contended
// 8×8-mesh NoC: every cross-core token is charged real serialization, hop
// latency and link queuing through the scheduler, so this measures the
// interconnect model's cost at scale (first recorded in BENCH_scale.json
// as a reference section; the next perf PR gates against it).
func BenchmarkExplore64CoreNoC(b *testing.B) {
	cfg := DefaultRandomGraphConfig(120)
	cfg.MaxWidth = 32
	g, err := RandomGraph(cfg, 11)
	if err != nil {
		b.Fatal(err)
	}
	types := []ProcType{
		{Name: "eff", Levels: arch.ARM7Levels2()},
		{Name: "perf", Levels: arch.ARM7Levels4()},
	}
	coreTypes := make([]int, 64)
	for i := 56; i < 64; i++ {
		coreTypes[i] = 1
	}
	p, err := NewHeterogeneousPlatform(types, coreTypes, WithInterconnect(Interconnect{
		Topology:      TopologyMesh,
		BandwidthBps:  4e9,
		HopLatencySec: 1e-4,
	}))
	if err != nil {
		b.Fatal(err)
	}
	sys, err := NewSystem(g, p)
	if err != nil {
		b.Fatal(err)
	}
	opts := OptimizeOptions{
		DeadlineSec: RandomGraphDeadline(120) / 15,
		SearchMoves: 200,
		Seed:        1,
		Strategy:    StrategyBranchAndBound,
		Ranked:      true,
	}
	benchSystem(b, sys, opts)
}

// benchTelemetry measures one exploration workload with the telemetry
// collector attached or absent. With telemetry on it also reports the
// per-phase wall-clock breakdown the collector recorded, so the benchmark
// output doubles as the flagship phase profile in BENCH_scale.json.
func benchTelemetry(b *testing.B, sys *System, opts OptimizeOptions, withTel bool) {
	b.Helper()
	var agg ExplorePhaseStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := opts
		var st *ExploreStats
		if withTel {
			st = new(ExploreStats)
			o.Stats = st
		}
		if _, err := sys.Optimize(o); err != nil {
			b.Fatal(err)
		}
		if withTel {
			agg.BoundsNanos += st.Phases.BoundsNanos
			agg.RankedSeedNanos += st.Phases.RankedSeedNanos
			agg.EnumerationNanos += st.Phases.EnumerationNanos
			agg.ProbeNanos += st.Phases.ProbeNanos
			agg.MapperNanos += st.Phases.MapperNanos
			agg.FoldNanos += st.Phases.FoldNanos
		}
	}
	b.StopTimer()
	if withTel {
		ms := func(ns int64) float64 { return float64(ns) / float64(b.N) / 1e6 }
		b.ReportMetric(ms(agg.BoundsNanos), "bounds-ms/op")
		b.ReportMetric(ms(agg.RankedSeedNanos), "ranked-ms/op")
		b.ReportMetric(ms(agg.EnumerationNanos), "enum-ms/op")
		b.ReportMetric(ms(agg.ProbeNanos), "probe-ms/op")
		b.ReportMetric(ms(agg.MapperNanos), "mapper-ms/op")
		b.ReportMetric(ms(agg.FoldNanos), "fold-ms/op")
	}
}

// BenchmarkTelemetryOverhead16Core pins the observability cost on the
// 16-core workload: /off is the plain exploration, /on attaches the
// collector and must stay within the telemetry budget (<2% wall clock).
func BenchmarkTelemetryOverhead16Core(b *testing.B) {
	for _, tel := range []bool{false, true} {
		name := "off"
		if tel {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			g, dl := bench16Graph(b)
			sys, err := NewARM7System(g, 16, 3)
			if err != nil {
				b.Fatal(err)
			}
			benchTelemetry(b, sys, OptimizeOptions{
				DeadlineSec: dl,
				SearchMoves: 200,
				Seed:        1,
				Strategy:    StrategyBranchAndBound,
			}, tel)
		})
	}
}

// BenchmarkTelemetryFlagship64Core is the flagship phase profile: the
// ranked 64-core BnB walk of BENCH_scale.json with the collector attached,
// reporting where its wall clock actually goes (probe vs mapper vs fold).
// Compare /on against /off at -benchtime 1x for the recorded overhead.
func BenchmarkTelemetryFlagship64Core(b *testing.B) {
	for _, tel := range []bool{false, true} {
		name := "off"
		if tel {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			sys, opts := bench64System(b)
			opts.Strategy = StrategyBranchAndBound
			opts.Ranked = true
			benchTelemetry(b, sys, opts, tel)
		})
	}
}

// BenchmarkAblations runs the three design-choice ablation studies
// (exposure model, greedy seeding, scaling enumeration).
func BenchmarkAblations(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, err := expt.Ablations(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Exposure) != 2 {
			b.Fatal("wrong ablation shape")
		}
	}
}

// BenchmarkOptimalityGap runs the exhaustive-vs-heuristics study (the
// symmetry-reduced 4^11 enumeration dominates the cost).
func BenchmarkOptimalityGap(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, err := expt.OptimalityGap(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Optimum <= 0 {
			b.Fatal("no optimum")
		}
	}
}

// benchSweepDeadlines is the 8-point deadline sweep of BENCH_sweep.json:
// deadlines clustered just above the 16-core workload's pruning deadline,
// so every point is feasible but the scalar winner moves with the
// constraint.
func benchSweepDeadlines() []float64 {
	base := RandomGraphDeadline(40) * 0.5
	dls := make([]float64, 8)
	for i := range dls {
		dls[i] = base * (1 + 0.01*float64(i))
	}
	return dls
}

// BenchmarkSweepWarmVsCold is the warm-start measurement of
// BENCH_sweep.json: /Cold runs the 8-point deadline sweep as 8 independent
// Optimize calls (fresh probe work, cold incumbent, per-run bounds);
// /Warm runs the same 8 points as ONE OptimizeSweep batch — one bounds
// precompute, one probe-trajectory climb shared across all points, and
// ranked warm incumbents — and must return byte-identical designs roughly
// an order of magnitude faster (cmd/benchgate gates the Cold/Warm ratio).
func BenchmarkSweepWarmVsCold(b *testing.B) {
	g, _ := bench16Graph(b)
	deadlines := benchSweepDeadlines()
	sys, err := NewARM7System(g, 16, 3)
	if err != nil {
		b.Fatal(err)
	}
	base := OptimizeOptions{
		StreamIterations: 1,
		SearchMoves:      200,
		Seed:             1,
	}
	b.Run("Cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, dl := range deadlines {
				o := base
				o.DeadlineSec = dl
				if _, err := sys.Optimize(o); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("Warm", func(b *testing.B) {
		points := make([]SweepPoint, len(deadlines))
		for i, dl := range deadlines {
			points[i] = SweepPoint{DeadlineSec: dl}
		}
		for i := 0; i < b.N; i++ {
			if _, err := sys.OptimizeSweep(points, SweepOptions{Options: base}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
