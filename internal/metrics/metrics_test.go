package metrics

import (
	"math"
	"math/rand"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/faults"
	"seadopt/internal/registers"
	"seadopt/internal/sched"
	"seadopt/internal/taskgraph"
)

func plat(cores int) *arch.Platform {
	return arch.MustNewPlatform(cores, arch.ARM7Levels3())
}

func ser() faults.SERModel { return faults.NewSERModel(faults.DefaultSER) }

// twoTask builds a two-task graph with a known register layout:
// tA uses {shared, locA}, tB uses {shared, locB}.
func twoTask(t *testing.T) *taskgraph.Graph {
	t.Helper()
	inv := registers.NewInventory()
	inv.MustAdd("shared", 1000)
	inv.MustAdd("locA", 200)
	inv.MustAdd("locB", 300)
	b := taskgraph.NewBuilder("two", inv)
	a := b.AddTask("A", 1_000_000, "shared", "locA")
	bb := b.AddTask("B", 2_000_000, "shared", "locB")
	b.AddEdge(a, bb, 100_000)
	return b.MustBuild()
}

func TestRegisterDuplicationAcrossCores(t *testing.T) {
	g := twoTask(t)
	p := arch.MustNewPlatform(2, arch.ARM7Levels3(), arch.WithBaselineBits(0))

	// Same core: shared counted once. R = 1000+200+300 = 1500.
	evSame, err := Evaluate(g, p, sched.Mapping{0, 0}, []int{1, 1}, ser(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if evSame.TotalRegBits != 1500 {
		t.Errorf("same-core R = %d, want 1500", evSame.TotalRegBits)
	}
	// Split cores: shared duplicated. R = (1000+200) + (1000+300) = 2500.
	evSplit, err := Evaluate(g, p, sched.Mapping{0, 1}, []int{1, 1}, ser(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if evSplit.TotalRegBits != 2500 {
		t.Errorf("split R = %d, want 2500", evSplit.TotalRegBits)
	}
	if evSplit.PerCore[0].RegBits != 1200 || evSplit.PerCore[1].RegBits != 1300 {
		t.Errorf("per-core R = %d,%d", evSplit.PerCore[0].RegBits, evSplit.PerCore[1].RegBits)
	}
	// The split reduces makespan but raises R — the paper's trade-off.
	if evSplit.MakespanSec >= evSame.MakespanSec {
		t.Log("note: split did not reduce makespan for this tiny graph")
	}
}

func TestGammaHandComputed(t *testing.T) {
	g := twoTask(t)
	p := arch.MustNewPlatform(2, arch.ARM7Levels3(), arch.WithBaselineBits(0))
	m := sched.Mapping{0, 1}
	scaling := []int{1, 2}
	ev, err := Evaluate(g, p, m, scaling, ser(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Eq. (7): T_0 = 1e6 + 1e5 (cross edge), T_1 = 2e6 + 1e5.
	if ev.PerCore[0].BusyCycles != 1_100_000 || ev.PerCore[1].BusyCycles != 2_100_000 {
		t.Fatalf("busy cycles = %d,%d", ev.PerCore[0].BusyCycles, ev.PerCore[1].BusyCycles)
	}
	lam0 := ser().RatePerSec(p.MustCoreLevel(0, 1).Vdd)
	lam1 := ser().RatePerSec(p.MustCoreLevel(0, 2).Vdd)
	// Exposure window is the full T_M for both used cores.
	want := 1200*ev.TMSeconds*lam0 + 1300*ev.TMSeconds*lam1
	if math.Abs(ev.Gamma-want) > 1e-9*want {
		t.Errorf("Γ = %v, want %v", ev.Gamma, want)
	}
	if ev.PerCore[0].ExposureSec != ev.TMSeconds || ev.PerCore[1].ExposureSec != ev.TMSeconds {
		t.Error("used cores should be exposed for the full T_M")
	}
	// Core at lower voltage must have the higher λ (per second and per
	// cycle — the slower clock amplifies the per-cycle rate further).
	if ev.PerCore[1].LambdaPerSec <= ev.PerCore[0].LambdaPerSec {
		t.Error("per-second λ ordering wrong across scaling levels")
	}
	if ev.PerCore[1].Lambda <= ev.PerCore[0].Lambda {
		t.Error("per-cycle λ ordering wrong across scaling levels")
	}
}

func TestBaselineBitsOnlyOnUsedCores(t *testing.T) {
	g := twoTask(t)
	p := arch.MustNewPlatform(3, arch.ARM7Levels3(), arch.WithBaselineBits(5000))
	ev, err := Evaluate(g, p, sched.Mapping{0, 0}, []int{1, 1, 1}, ser(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ev.PerCore[0].BaselineBits != 5000 {
		t.Errorf("used core baseline = %d", ev.PerCore[0].BaselineBits)
	}
	if ev.PerCore[1].BaselineBits != 0 || ev.PerCore[2].BaselineBits != 0 {
		t.Error("idle cores should expose no baseline storage")
	}
	if ev.PerCore[2].Gamma != 0 {
		t.Error("idle core contributed Γ")
	}
}

func TestDeadlineCheck(t *testing.T) {
	g := twoTask(t)
	p := plat(2)
	m := sched.Mapping{0, 1}
	evTight, err := Evaluate(g, p, m, []int{3, 3}, ser(), Options{DeadlineSec: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if evTight.MeetsDeadline {
		t.Error("nanosecond deadline reported met")
	}
	evLoose, err := Evaluate(g, p, m, []int{3, 3}, ser(), Options{DeadlineSec: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !evLoose.MeetsDeadline {
		t.Error("100s deadline reported missed")
	}
	evNone, err := Evaluate(g, p, m, []int{3, 3}, ser(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !evNone.MeetsDeadline {
		t.Error("no deadline should always be met")
	}
}

func TestMPEG2PipelineFeasibleAtScale2(t *testing.T) {
	// The paper's Table II designs run mostly at s=2 and meet the 14.58 s
	// tennis-stream deadline; the pipelined T_M must reproduce that
	// feasibility for a balanced 4-core mapping.
	g := taskgraph.MPEG2()
	p := plat(4)
	// Exp:4's mapping from Table II: {t1..t6}, {t7,t8}, {t9}, {t10,t11}.
	m := sched.Mapping{0, 0, 0, 0, 0, 0, 1, 1, 2, 3}
	m = append(m, 3)
	ev, err := Evaluate(g, p, m, []int{2, 2, 3, 2}, ser(),
		Options{Iterations: taskgraph.MPEG2Frames, DeadlineSec: taskgraph.MPEG2Deadline})
	if err != nil {
		t.Fatal(err)
	}
	if !ev.MeetsDeadline {
		t.Errorf("Exp:4 design misses deadline: T_M = %v s > %v s", ev.TMSeconds, taskgraph.MPEG2Deadline)
	}
	// Power should be in the paper's single-digit-mW band.
	if mw := ev.PowerW * 1e3; mw < 1 || mw > 12 {
		t.Errorf("power %v mW outside plausible band", mw)
	}
	// Γ within an order of magnitude of Table II's ~4e5.
	if ev.Gamma < 2e4 || ev.Gamma > 4e6 {
		t.Errorf("Γ = %v wildly off Table II magnitudes", ev.Gamma)
	}
}

func TestEvaluateRejectsBadInputs(t *testing.T) {
	g := twoTask(t)
	p := plat(2)
	if _, err := Evaluate(g, p, sched.Mapping{0}, []int{1, 1}, ser(), Options{}); err == nil {
		t.Error("short mapping accepted")
	}
	if _, err := Evaluate(g, p, sched.Mapping{0, 1}, []int{1, 1}, faults.SERModel{}, Options{}); err == nil {
		t.Error("invalid SER model accepted")
	}
}

// Property: scaling all cores from s=1 to s=2 roughly doubles busy seconds
// and multiplies Γ by ≈2.5 (Observation 3).
func TestObservation3Scaling(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := taskgraph.MPEG2()
	p := plat(4)
	for trial := 0; trial < 10; trial++ {
		m := sched.RandomMapping(rng, g.N(), 4)
		ev1, err := Evaluate(g, p, m, []int{1, 1, 1, 1}, ser(), Options{Iterations: taskgraph.MPEG2Frames})
		if err != nil {
			t.Fatal(err)
		}
		ev2, err := Evaluate(g, p, m, []int{2, 2, 2, 2}, ser(), Options{Iterations: taskgraph.MPEG2Frames})
		if err != nil {
			t.Fatal(err)
		}
		tmRatio := ev2.TMSeconds / ev1.TMSeconds
		if math.Abs(tmRatio-2.0) > 0.01 {
			t.Errorf("trial %d: T_M ratio = %v, want 2.0", trial, tmRatio)
		}
		gRatio := ev2.Gamma / ev1.Gamma
		if math.Abs(gRatio-2.5) > 0.01 {
			t.Errorf("trial %d: Γ ratio = %v, want 2.5 (Observation 3)", trial, gRatio)
		}
	}
}
