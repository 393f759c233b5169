package anneal

import (
	"fmt"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/faults"
	"seadopt/internal/mapping"
	"seadopt/internal/metrics"
	"seadopt/internal/sched"
	"seadopt/internal/taskgraph"
)

func plat(cores int) *arch.Platform {
	return arch.MustNewPlatform(cores, arch.ARM7Levels3())
}

func cfg(obj Objective) Config {
	return Config{
		Objective:   obj,
		SER:         faults.NewSERModel(faults.DefaultSER),
		DeadlineSec: taskgraph.MPEG2Deadline,
		Iterations:  taskgraph.MPEG2Frames,
		Moves:       1200,
		Seed:        7,
	}
}

func TestConfigValidate(t *testing.T) {
	good := cfg(ObjectiveRegisterUsage)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.DeadlineSec = -1
	if bad.Validate() == nil {
		t.Error("negative deadline accepted")
	}
	bad = good
	bad.Objective = Objective(99)
	if bad.Validate() == nil {
		t.Error("unknown objective accepted")
	}
	bad = good
	bad.Moves = -1
	if bad.Validate() == nil {
		t.Error("negative moves accepted")
	}
}

func TestObjectiveString(t *testing.T) {
	for o, want := range map[Objective]string{
		ObjectiveRegisterUsage:  "register-usage",
		ObjectiveMakespan:       "makespan",
		ObjectiveRegTimeProduct: "regtime-product",
		ObjectiveGamma:          "gamma",
	} {
		if o.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(o), o.String(), want)
		}
	}
	if Objective(42).String() == "" {
		t.Error("unknown objective produced empty string")
	}
}

// The defining property of the baselines: each annealer wins on its own
// objective. Exp:1's R must be ≤ Exp:2's R; Exp:2's T_M must be ≤ Exp:1's
// T_M — the two ends of the paper's trade-off (Fig. 3a).
func TestObjectivesPullOppositeDirections(t *testing.T) {
	g := taskgraph.MPEG2()
	p := plat(4)
	scaling := []int{2, 2, 3, 2}

	evR, err := Anneal(g, p, scaling, cfg(ObjectiveRegisterUsage))
	if err != nil {
		t.Fatal(err)
	}
	evT, err := Anneal(g, p, scaling, cfg(ObjectiveMakespan))
	if err != nil {
		t.Fatal(err)
	}
	if evR.TotalRegBits > evT.TotalRegBits {
		t.Errorf("register-usage annealer R=%d > makespan annealer R=%d",
			evR.TotalRegBits, evT.TotalRegBits)
	}
	if evT.TMSeconds > evR.TMSeconds {
		t.Errorf("makespan annealer T_M=%v > register annealer T_M=%v",
			evT.TMSeconds, evR.TMSeconds)
	}
}

func TestGammaOracleBeatsUnawareBaselines(t *testing.T) {
	// Annealing directly on Γ must produce Γ no worse than annealing on R
	// or T_M at the same scaling (it optimizes the reported metric).
	g := taskgraph.MPEG2()
	p := plat(4)
	scaling := []int{2, 2, 3, 2}
	cG := cfg(ObjectiveGamma)
	cG.Moves = 5000
	evG, err := Anneal(g, p, scaling, cG)
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []Objective{ObjectiveRegisterUsage, ObjectiveMakespan, ObjectiveRegTimeProduct} {
		ev, err := Anneal(g, p, scaling, cfg(obj))
		if err != nil {
			t.Fatal(err)
		}
		// SA is stochastic: allow a small margin, but the oracle must not
		// lose badly on the metric it optimizes directly.
		if evG.Gamma > ev.Gamma*1.05 {
			t.Errorf("Γ-oracle %v worse than %v baseline %v", evG.Gamma, obj, ev.Gamma)
		}
	}
}

func TestAnnealDeterministic(t *testing.T) {
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(30), 2)
	p := plat(3)
	scaling := []int{2, 2, 2}
	c := cfg(ObjectiveRegTimeProduct)
	c.DeadlineSec = taskgraph.RandomDeadline(30)
	c.Iterations = 1
	a, err := Anneal(g, p, scaling, c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Anneal(g, p, scaling, c)
	if err != nil {
		t.Fatal(err)
	}
	if a.Gamma != b.Gamma || fmt.Sprint(a.Schedule.Mapping) != fmt.Sprint(b.Schedule.Mapping) {
		t.Error("same seed produced different annealing results")
	}
}

func TestAnnealRespectsDeadlinePressure(t *testing.T) {
	// With a deadline only parallel mappings meet, the annealer must end
	// feasible for every objective (the penalty drives it there).
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(24), 6)
	p := plat(4)
	scaling := []int{1, 1, 1, 1}
	serial, err := metrics.Evaluate(g, p, make(sched.Mapping, g.N()), scaling,
		faults.NewSERModel(faults.DefaultSER), metrics.Options{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []Objective{ObjectiveRegisterUsage, ObjectiveMakespan, ObjectiveRegTimeProduct, ObjectiveGamma} {
		c := cfg(obj)
		c.Iterations = 1
		c.DeadlineSec = serial.TMSeconds * 0.6
		c.Moves = 2500
		ev, err := Anneal(g, p, scaling, c)
		if err != nil {
			t.Fatal(err)
		}
		if !ev.MeetsDeadline {
			t.Errorf("%v: annealer ended infeasible (T_M %v vs deadline %v)",
				obj, ev.TMSeconds, c.DeadlineSec)
		}
	}
}

func TestMapperAdapterInExplore(t *testing.T) {
	// The annealer must plug into the Fig. 4 outer loop exactly like the
	// proposed mapper (Exp:1-3 run under the same voltage-scaling
	// iteration).
	g := taskgraph.Fig8()
	p := plat(3)
	c := cfg(ObjectiveMakespan)
	c.DeadlineSec = taskgraph.Fig8Deadline
	c.Iterations = 1
	c.Moves = 300
	mcfg := mapping.Config{
		SER:         c.SER,
		DeadlineSec: c.DeadlineSec,
		Iterations:  1,
		SearchMoves: 100,
	}
	explored := 0
	mcfg.Progress = func(mapping.Progress) { explored++ }
	best, err := mapping.Explore(g, p, Mapper(c), mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if explored != 10 { // C(3+3-1,3) = 10 combos for 3 cores / 3 levels
		t.Fatalf("explored %d scalings, want 10", explored)
	}
	if !best.Eval.MeetsDeadline {
		t.Error("no feasible design found for the Fig. 8 example")
	}
}
