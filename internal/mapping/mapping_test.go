package mapping

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/faults"
	"seadopt/internal/metrics"
	"seadopt/internal/sched"
	"seadopt/internal/taskgraph"
)

func plat(cores int) *arch.Platform {
	return arch.MustNewPlatform(cores, arch.ARM7Levels3())
}

func cfg(deadline float64, iters int) Config {
	return Config{
		SER:         faults.NewSERModel(faults.DefaultSER),
		DeadlineSec: deadline,
		Iterations:  iters,
		SearchMoves: 600,
		Seed:        1,
	}
}

func TestConfigValidate(t *testing.T) {
	good := cfg(1, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.DeadlineSec = -1
	if bad.Validate() == nil {
		t.Error("negative deadline accepted")
	}
	bad = good
	bad.SearchMoves = -1
	if bad.Validate() == nil {
		t.Error("negative budget accepted")
	}
	bad = good
	bad.SER = faults.SERModel{}
	if bad.Validate() == nil {
		t.Error("invalid SER accepted")
	}
}

func TestInitialSEAMappingFig8(t *testing.T) {
	g := taskgraph.Fig8()
	p := plat(3)
	scaling := []int{1, 2, 2} // the worked example's s1=1, s2=2, s3=2
	m, err := InitialSEAMapping(g, p, scaling, cfg(taskgraph.Fig8Deadline, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(g, 3); err != nil {
		t.Fatal(err)
	}
	// Every core hosts at least one task (the algorithm reserves tasks for
	// the remaining cores — Fig. 6 line 4).
	if used := m.UsedCores(3); used != 3 {
		t.Errorf("mapping uses %d cores, want 3 (mapping %v)", used, m)
	}
	// t1 (the root) goes to core 0 first (Fig. 6 line 1/3).
	if m[0] != 0 {
		t.Errorf("root task mapped to core %d, want 0", m[0])
	}
	// Per-core busy time must respect the deadline given the example's
	// voltage scalings once optimized; the initial mapping at least keeps
	// core 0 within it.
	s, err := sched.ListSchedule(g, p, m, scaling)
	if err != nil {
		t.Fatal(err)
	}
	if s.BusySeconds(0) > taskgraph.Fig8Deadline {
		t.Errorf("core 0 busy %v s exceeds the 75 ms deadline", s.BusySeconds(0))
	}
}

func TestInitialSEAMappingAllGraphs(t *testing.T) {
	graphs := []*taskgraph.Graph{
		taskgraph.MPEG2(),
		taskgraph.MustRandom(taskgraph.DefaultRandomConfig(40), 3),
		taskgraph.MustRandom(taskgraph.DefaultRandomConfig(20), 9),
	}
	for _, g := range graphs {
		for cores := 2; cores <= 6; cores++ {
			p := plat(cores)
			scaling := make([]int, cores)
			for i := range scaling {
				scaling[i] = 2
			}
			m, err := InitialSEAMapping(g, p, scaling, cfg(1e9, 1))
			if err != nil {
				t.Fatalf("%s/%d cores: %v", g.Name(), cores, err)
			}
			if err := m.Validate(g, cores); err != nil {
				t.Fatalf("%s/%d cores: %v", g.Name(), cores, err)
			}
			if used := m.UsedCores(cores); used < 2 {
				t.Errorf("%s/%d cores: only %d cores used", g.Name(), cores, used)
			}
		}
	}
}

func TestInitialSEAMappingPrefersSharedRegisters(t *testing.T) {
	// On the MPEG-2 graph with a loose deadline, the greedy stage should
	// co-locate chains that share registers rather than scattering them:
	// its Γ must beat a round-robin scatter at the same scaling.
	g := taskgraph.MPEG2()
	p := plat(4)
	scaling := []int{2, 2, 2, 2}
	c := cfg(taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames)
	m, err := InitialSEAMapping(g, p, scaling, c)
	if err != nil {
		t.Fatal(err)
	}
	opt := metrics.Options{Iterations: c.Iterations, DeadlineSec: c.DeadlineSec}
	evGreedy, err := metrics.Evaluate(g, p, m, scaling, c.SER, opt)
	if err != nil {
		t.Fatal(err)
	}
	evRR, err := metrics.Evaluate(g, p, sched.RoundRobin(g.N(), 4), scaling, c.SER, opt)
	if err != nil {
		t.Fatal(err)
	}
	if evGreedy.TotalRegBits >= evRR.TotalRegBits {
		t.Errorf("greedy R = %d bits not below round-robin %d", evGreedy.TotalRegBits, evRR.TotalRegBits)
	}
}

func TestOptimizedMappingImprovesOrEqualsInitial(t *testing.T) {
	g := taskgraph.MPEG2()
	p := plat(4)
	scaling := []int{2, 2, 3, 2}
	c := cfg(taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames)
	init, err := InitialSEAMapping(g, p, scaling, c)
	if err != nil {
		t.Fatal(err)
	}
	opt := metrics.Options{Iterations: c.Iterations, DeadlineSec: c.DeadlineSec}
	evInit, err := metrics.Evaluate(g, p, init, scaling, c.SER, opt)
	if err != nil {
		t.Fatal(err)
	}
	evBest, err := OptimizedMapping(g, p, scaling, init, c)
	if err != nil {
		t.Fatal(err)
	}
	if evInit.MeetsDeadline && !evBest.MeetsDeadline {
		t.Fatal("search lost feasibility")
	}
	if evBest.MeetsDeadline && evInit.MeetsDeadline && evBest.Gamma > evInit.Gamma {
		t.Errorf("search worsened Γ: %v -> %v", evInit.Gamma, evBest.Gamma)
	}
}

func TestOptimizedMappingFindsFeasibility(t *testing.T) {
	// Start from an infeasible all-on-one-core mapping with a deadline only
	// a parallel mapping can meet; the search must recover feasibility.
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(20), 4)
	p := plat(4)
	scaling := []int{1, 1, 1, 1}
	all0 := make(sched.Mapping, g.N())
	c := cfg(0, 1)
	evAll0, err := metrics.Evaluate(g, p, all0, scaling, c.SER, metrics.Options{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Deadline at 70% of the serial makespan: infeasible serially, feasible
	// with modest parallelism (the layered generator bounds graph width).
	c.DeadlineSec = evAll0.TMSeconds * 0.7
	c.SearchMoves = 3000
	ev, err := OptimizedMapping(g, p, scaling, all0, c)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.MeetsDeadline {
		t.Errorf("search failed to reach feasibility: T_M %v vs deadline %v",
			ev.TMSeconds, c.DeadlineSec)
	}
}

func TestOptimizedMappingDeterministic(t *testing.T) {
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(25), 8)
	p := plat(3)
	scaling := []int{2, 2, 2}
	c := cfg(1e9, 1)
	init, err := InitialSEAMapping(g, p, scaling, c)
	if err != nil {
		t.Fatal(err)
	}
	a, err := OptimizedMapping(g, p, scaling, init, c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OptimizedMapping(g, p, scaling, init, c)
	if err != nil {
		t.Fatal(err)
	}
	if a.Gamma != b.Gamma || fmt.Sprint(a.Schedule.Mapping) != fmt.Sprint(b.Schedule.Mapping) {
		t.Error("same seed produced different optimization results")
	}
	c2 := c
	c2.Seed = 99
	d, err := OptimizedMapping(g, p, scaling, init, c2)
	if err != nil {
		t.Fatal(err)
	}
	_ = d // different seed may or may not coincide; just ensure it runs
}

func TestSEAMapperBeatsRandomMappings(t *testing.T) {
	// At a fixed scaling, the proposed mapper's Γ should be no worse than
	// the best of a handful of random mappings (sanity on search quality).
	g := taskgraph.MPEG2()
	p := plat(4)
	scaling := []int{2, 2, 3, 2}
	c := cfg(taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames)
	c.SearchMoves = 1500
	_, ev, err := MapOnce(context.Background(), g, p, scaling, SEAMapper(c), c)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.MeetsDeadline {
		t.Fatal("proposed mapper infeasible at Table II scaling")
	}
	rng := rand.New(rand.NewSource(31))
	opt := metrics.Options{Iterations: c.Iterations, DeadlineSec: c.DeadlineSec}
	beaten := 0
	for i := 0; i < 20; i++ {
		m := sched.RandomMapping(rng, g.N(), 4)
		evR, err := metrics.Evaluate(g, p, m, scaling, c.SER, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !evR.MeetsDeadline || evR.Gamma >= ev.Gamma {
			beaten++
		}
	}
	if beaten < 18 {
		t.Errorf("proposed mapper beaten by %d/20 random mappings", 20-beaten)
	}
}

func TestExploreMPEG2(t *testing.T) {
	g := taskgraph.MPEG2()
	p := plat(4)
	c := cfg(taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames)
	c.SearchMoves = 400
	c.Strategy = StrategyExhaustive // the test inspects every per-scaling design
	rec := recordDesigns(&c)
	best, err := Explore(g, p, SEAMapper(c), c)
	if err != nil {
		t.Fatal(err)
	}
	per := rec.designs(t)
	if len(per) != 15 {
		t.Fatalf("explored %d scalings, want 15 (Fig. 5b)", len(per))
	}
	if !best.Eval.MeetsDeadline {
		t.Fatal("best design misses deadline")
	}
	// Best must sit at the minimal nominal-power scaling among feasible
	// designs (step 1 minimizes power at the scaling level).
	nominal := func(s []int) float64 {
		v, err := p.DynamicPower(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	bestNom := nominal(best.Scaling)
	for _, d := range per {
		if d.Eval.MeetsDeadline && nominal(d.Scaling) < bestNom*(1-1e-9) {
			t.Errorf("scaling %v is feasible with lower nominal power %v < %v",
				d.Scaling, nominal(d.Scaling), bestNom)
		}
	}
	// The paper's winning designs run scaled down, not all-nominal.
	allNominal := true
	for _, s := range best.Scaling {
		if s != 1 {
			allNominal = false
		}
	}
	if allNominal {
		t.Error("best design is all-nominal; voltage scaling bought nothing")
	}
	// Power in the single-digit mW band of Table II.
	if mw := best.Eval.PowerW * 1e3; mw < 1 || mw > 12 {
		t.Errorf("best design power %v mW outside Table II band", mw)
	}
}

func TestExploreImpossibleDeadline(t *testing.T) {
	g := taskgraph.Fig8()
	p := plat(2)
	c := cfg(1e-9, 1) // nanosecond deadline: nothing is feasible
	c.SearchMoves = 100
	best, err := Explore(g, p, SEAMapper(c), c)
	if err != nil {
		t.Fatal(err)
	}
	if best.Eval.MeetsDeadline {
		t.Error("impossible deadline reported met")
	}
}
