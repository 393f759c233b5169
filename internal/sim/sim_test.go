package sim

import (
	"math"
	"math/rand"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/desim"
	"seadopt/internal/faults"
	"seadopt/internal/metrics"
	"seadopt/internal/sched"
	"seadopt/internal/taskgraph"
)

func plat(cores int) *arch.Platform {
	return arch.MustNewPlatform(cores, arch.ARM7Levels3())
}

func ser() faults.SERModel { return faults.NewSERModel(faults.DefaultSER) }

// The simulator and the analytic list scheduler implement the same dispatch
// policy, so single-iteration makespans must agree to clock-quantization
// error. This cross-validates the DES kernel against the scheduler.
func TestSimMatchesListSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	graphs := []*taskgraph.Graph{
		taskgraph.MPEG2(),
		taskgraph.Fig8(),
		taskgraph.MustRandom(taskgraph.DefaultRandomConfig(30), 5),
	}
	for _, g := range graphs {
		for trial := 0; trial < 8; trial++ {
			cores := 2 + rng.Intn(4)
			p := plat(cores)
			m := sched.RandomMapping(rng, g.N(), cores)
			scaling := make([]int, cores)
			for i := range scaling {
				scaling[i] = 1 + rng.Intn(3)
			}
			s, err := sched.ListSchedule(g, p, m, scaling)
			if err != nil {
				t.Fatal(err)
			}
			r, err := Run(g, p, m, scaling, Config{Iterations: 1})
			if err != nil {
				t.Fatal(err)
			}
			rel := math.Abs(r.MakespanSec-s.MakespanSeconds()) / s.MakespanSeconds()
			if rel > 1e-9 {
				t.Errorf("%s trial %d: sim makespan %.9f != sched %.9f (rel %v)",
					g.Name(), trial, r.MakespanSec, s.MakespanSeconds(), rel)
			}
		}
	}
}

func TestSimValidation(t *testing.T) {
	g := taskgraph.Fig8()
	p := plat(2)
	if _, err := Run(g, p, sched.Mapping{0}, []int{1, 1}, Config{}); err == nil {
		t.Error("short mapping accepted")
	}
	if _, err := Run(g, p, make(sched.Mapping, g.N()), []int{1}, Config{}); err == nil {
		t.Error("short scaling accepted")
	}
}

func TestPipelinedSimThroughput(t *testing.T) {
	// Pipelining a streaming workload must not be slower than the DAG run,
	// and must be at least the bottleneck core's busy time.
	g := taskgraph.MPEG2()
	p := plat(4)
	m := sched.Mapping{0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 3} // Table II Exp:4 mapping
	scaling := []int{2, 2, 3, 2}

	dag, err := Run(g, p, m, scaling, Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := Run(g, p, m, scaling, Config{Iterations: taskgraph.MPEG2Frames})
	if err != nil {
		t.Fatal(err)
	}
	if pipe.MakespanSec > dag.MakespanSec*1.0001 {
		t.Errorf("pipelined run slower than DAG: %v > %v", pipe.MakespanSec, dag.MakespanSec)
	}
	var maxBusy float64
	for c := 0; c < 4; c++ {
		if b := pipe.coreBusyFs[c].Seconds(); b > maxBusy {
			maxBusy = b
		}
	}
	if pipe.MakespanSec < maxBusy-1e-9 {
		t.Errorf("pipelined makespan %v below bottleneck busy %v", pipe.MakespanSec, maxBusy)
	}
	// The analytic pipeline estimate should be close to the measured one.
	s, err := sched.ListSchedule(g, p, m, scaling)
	if err != nil {
		t.Fatal(err)
	}
	est := s.PipelinedMakespanSeconds(taskgraph.MPEG2Frames)
	rel := math.Abs(est-pipe.MakespanSec) / pipe.MakespanSec
	if rel > 0.15 {
		t.Errorf("analytic pipeline estimate %v vs measured %v (rel err %v > 15%%)",
			est, pipe.MakespanSec, rel)
	}
	// Work conservation: total executed cycles must match the graph.
	var totalEvents int
	for range pipe.Events {
		totalEvents++
	}
	if totalEvents != g.N()*taskgraph.MPEG2Frames {
		t.Errorf("executed %d instances, want %d", totalEvents, g.N()*taskgraph.MPEG2Frames)
	}
}

func TestLivenessConservative(t *testing.T) {
	g := taskgraph.Fig8()
	p := plat(3)
	m := sched.Mapping{0, 1, 0, 1, 0, 2}
	r, err := Run(g, p, m, []int{1, 2, 2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	lv, err := r.Liveness(ExposureConservative)
	if err != nil {
		t.Fatal(err)
	}
	// Core 0 hosts t1,t3,t5 -> registers r1,r2,r3 ∪ r4,r5,r6 ∪ r6,r7,r8,
	// and every live register spans the whole run in local cycles.
	live := map[string]bool{"r1": true, "r2": true, "r3": true, "r4": true, "r5": true, "r6": true, "r7": true, "r8": true}
	horizon := r.localCycles(0, desim.FromSeconds(r.MakespanSec))
	for _, reg := range g.Inventory().IDs() {
		want := int64(0)
		if live[reg] {
			want = horizon
		}
		if got := lv.LiveCycles(0, reg); got != want {
			t.Errorf("register %s live %d cycles on core 0, want %d", reg, got, want)
		}
	}
}

func TestLivenessLifetimeTighter(t *testing.T) {
	g := taskgraph.MPEG2()
	p := plat(4)
	m := sched.RoundRobin(g.N(), 4)
	r, err := Run(g, p, m, []int{1, 1, 1, 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := r.Liveness(ExposureConservative)
	if err != nil {
		t.Fatal(err)
	}
	life, err := r.Liveness(ExposureLifetime)
	if err != nil {
		t.Fatal(err)
	}
	inv := g.Inventory()
	var consExp, lifeExp int64
	for c := 0; c < 4; c++ {
		consExp += cons.Exposure(inv, c)
		lifeExp += life.Exposure(inv, c)
	}
	if lifeExp >= consExp {
		t.Errorf("lifetime exposure %d not tighter than conservative %d", lifeExp, consExp)
	}
	if lifeExp <= 0 {
		t.Error("lifetime exposure is zero")
	}
}

func TestMeasuredGammaMatchesAnalytic(t *testing.T) {
	// Conservative-mode injection expectation must equal the metrics Γ
	// (same model evaluated two ways), and the Poisson measurement must
	// land within statistical range.
	g := taskgraph.MPEG2()
	p := plat(4)
	m := sched.Mapping{0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 3}
	scaling := []int{2, 2, 3, 2}

	ev, err := metrics.Evaluate(g, p, m, scaling, ser(), metrics.Options{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(g, p, m, scaling, Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	measured, expected, err := r.MeasureGamma(ser(), ExposureConservative, 77)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(expected-ev.Gamma) / ev.Gamma
	if rel > 0.01 {
		t.Errorf("injection expectation %v vs analytic Γ %v (rel %v)", expected, ev.Gamma, rel)
	}
	sigma := math.Sqrt(expected)
	if math.Abs(float64(measured)-expected) > 6*sigma {
		t.Errorf("measured Γ %d improbably far from expectation %v", measured, expected)
	}
}

func TestCampaignStructure(t *testing.T) {
	g := taskgraph.Fig8()
	p := plat(3)
	m := sched.Mapping{0, 1, 0, 1, 0, 2}
	r, err := Run(g, p, m, []int{1, 2, 2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.Campaign(ser(), ExposureConservative)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// λ must be higher (per cycle) on the scaled-down cores: lower V and
	// slower clock both push it up.
	if c.Lambda[1] <= c.Lambda[0] {
		t.Errorf("λ per cycle: core1 %v should exceed core0 %v", c.Lambda[1], c.Lambda[0])
	}
	// Baseline items present for all three used cores.
	nBase := 0
	for _, it := range c.Items {
		if it.Label == BaselineLabel {
			nBase++
		}
	}
	if nBase != 3 {
		t.Errorf("%d baseline items, want 3", nBase)
	}
	if _, err := r.Campaign(faults.SERModel{}, ExposureConservative); err == nil {
		t.Error("invalid SER model accepted")
	}
	if _, err := r.Liveness(ExposureMode(99)); err == nil {
		t.Error("unknown exposure mode accepted")
	}
}

func TestUtilizationAndEvents(t *testing.T) {
	g := taskgraph.Fig8()
	p := plat(2)
	m := sched.Mapping{0, 0, 0, 0, 0, 0}
	r, err := Run(g, p, m, []int{1, 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	u := r.Utilization()
	if math.Abs(u[0]-1.0) > 1e-9 {
		t.Errorf("single-core utilization = %v, want 1", u[0])
	}
	if u[1] != 0 {
		t.Errorf("idle core utilization = %v", u[1])
	}
	if r.EventsFired() == 0 {
		t.Error("kernel fired no events")
	}
	if len(r.Events) != g.N() {
		t.Errorf("%d task events, want %d", len(r.Events), g.N())
	}
}

func TestPressureProfile(t *testing.T) {
	g := taskgraph.MPEG2()
	p := plat(4)
	m := sched.RoundRobin(g.N(), 4)
	r, err := Run(g, p, m, []int{1, 1, 1, 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := r.PressureProfile(ExposureConservative, 8)
	if err != nil {
		t.Fatal(err)
	}
	life, err := r.PressureProfile(ExposureLifetime, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(cons) != 4 || len(cons[0]) != 8 {
		t.Fatalf("profile shape wrong: %dx%d", len(cons), len(cons[0]))
	}
	for c := 0; c < 4; c++ {
		for b := 0; b < 8; b++ {
			if life[c][b] > cons[c][b]+1e-6 {
				t.Errorf("core %d bucket %d: lifetime pressure %v above conservative %v",
					c, b, life[c][b], cons[c][b])
			}
		}
		// Conservative pressure is flat at the core's full register footprint.
		for b := 1; b < 8; b++ {
			if diff := cons[c][b] - cons[c][0]; diff > 1 || diff < -1 {
				t.Errorf("core %d: conservative pressure not flat: %v", c, cons[c])
			}
		}
	}
	if _, err := r.PressureProfile(ExposureMode(9), 4); err == nil {
		t.Error("bad mode accepted")
	}
}
