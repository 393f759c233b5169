package mapping

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/taskgraph"
	"seadopt/internal/vscale"
)

// heteroPlat builds a mixed platform: `fast` cores on the Fig. 11 4-level
// table, `std` cores on Table I, and one 2-level core — at least two
// distinct DVS tables however it is sliced.
func heteroPlat(t *testing.T, fast, std int) *arch.Platform {
	t.Helper()
	types := []arch.ProcType{
		{Name: "fast4", Levels: arch.ARM7Levels4()},
		{Name: "arm7", Levels: arch.ARM7Levels3()},
		{Name: "low2", Levels: arch.ARM7Levels2()},
	}
	var coreTypes []int
	for i := 0; i < fast; i++ {
		coreTypes = append(coreTypes, 0)
	}
	for i := 0; i < std; i++ {
		coreTypes = append(coreTypes, 1)
	}
	coreTypes = append(coreTypes, 2)
	p, err := arch.NewHeterogeneousPlatform(types, coreTypes)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestHeterogeneousExploreCoversSpace: the engine visits exactly the
// platform's mixed-radix space, in enumeration order, with stable indices.
func TestHeterogeneousExploreCoversSpace(t *testing.T) {
	g := taskgraph.Fig8()
	p := heteroPlat(t, 1, 1) // caps [4,3,2] → 24 combinations
	c := cfg(taskgraph.Fig8Deadline, 1)
	c.SearchMoves = 80
	c.Strategy = StrategyExhaustive
	space, err := vscale.PlatformSpace(p)
	if err != nil {
		t.Fatal(err)
	}
	want := space.All()
	var got [][]int
	c.Progress = func(pr Progress) {
		if pr.Combination != pr.Index {
			t.Errorf("exhaustive visit %d carries combination %d", pr.Index, pr.Combination)
		}
		got = append(got, append([]int(nil), pr.Scaling...))
	}
	if _, err := Explore(g, p, SEAMapper(c), c); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) != 24 {
		t.Fatalf("visited %d combinations, want %d", len(got), len(want))
	}
	for i := range want {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Errorf("visit %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestHeterogeneousBnBMatchesExhaustive is the acceptance property of the
// generalization: on platforms with ≥ 2 distinct level tables the default
// branch-and-bound strategy returns a byte-identical best Design to the
// exhaustive reference at Parallelism 1, 4 and GOMAXPROCS.
func TestHeterogeneousBnBMatchesExhaustive(t *testing.T) {
	workloads := []struct {
		name     string
		g        *taskgraph.Graph
		p        *arch.Platform
		deadline float64
		iters    int
	}{
		{"fig8-mixed3", taskgraph.Fig8(), heteroPlat(t, 1, 1), taskgraph.Fig8Deadline, 1},
		{"mpeg2-mixed4", taskgraph.MPEG2(), heteroPlat(t, 1, 2), taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames},
		{"random20-mixed4", taskgraph.MustRandom(taskgraph.DefaultRandomConfig(20), 3),
			heteroPlat(t, 2, 1), taskgraph.RandomDeadline(20) * 0.5, 1},
	}
	for _, wl := range workloads {
		base := cfg(wl.deadline, wl.iters)
		base.SearchMoves = 120

		exh := base
		exh.Strategy = StrategyExhaustive
		wantPer := recordDesigns(&exh)
		wantBest, err := Explore(wl.g, wl.p, SEAMapper(exh), exh)
		if err != nil {
			t.Fatalf("%s exhaustive: %v", wl.name, err)
		}
		want := designFingerprint(wantBest)

		for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			bnb := base
			bnb.Strategy = StrategyBranchAndBound
			bnb.Parallelism = par
			var avoided int
			bnb.Progress = func(pr Progress) {
				if pr.Pruned || pr.Skipped {
					avoided++
				}
			}
			gotPer := recordDesigns(&bnb)
			gotBest, err := Explore(wl.g, wl.p, SEAMapper(bnb), bnb)
			if err != nil {
				t.Fatalf("%s bnb par=%d: %v", wl.name, par, err)
			}
			if got := designFingerprint(gotBest); got != want {
				t.Errorf("%s par=%d: designs diverged:\n  exhaustive: %s\n  bnb:        %s",
					wl.name, par, want, got)
			}
			assertDesignsMatch(t, fmt.Sprintf("%s par=%d", wl.name, par), wantPer.designs(t), gotPer.designs(t))
			if avoided == 0 {
				t.Errorf("%s par=%d: branch-and-bound avoided nothing on the mixed platform", wl.name, par)
			}
		}
	}
}

// TestHeterogeneousParetoMatchesExhaustive: the Pareto frontier over a mixed
// platform is byte-identical between branch-and-bound and exhaustive at
// Parallelism 1, 4 and GOMAXPROCS.
func TestHeterogeneousParetoMatchesExhaustive(t *testing.T) {
	g64, dl64 := graph64(t)
	workloads := []struct {
		name     string
		g        *taskgraph.Graph
		p        *arch.Platform
		deadline float64
		iters    int
		moves    int
	}{
		{"fig8-mixed3", taskgraph.Fig8(), heteroPlat(t, 1, 1), taskgraph.Fig8Deadline, 1, 120},
		{"mpeg2-mixed4", taskgraph.MPEG2(), heteroPlat(t, 1, 2), taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames, 120},
		// The flagship-shaped 64-core space (9405 combinations) at the
		// reduced test budget: the frontier fold's bound-dominance skipping
		// and deadline pruning must stay byte-identical to exhaustive at
		// heterogeneous scale, not just on the small mixed platforms.
		{"hetero64", g64, plat64(t), dl64, 1, 8},
	}
	for _, wl := range workloads {
		if testing.Short() && wl.name == "hetero64" {
			continue
		}
		base := cfg(wl.deadline, wl.iters)
		base.SearchMoves = wl.moves

		exh := base
		exh.Strategy = StrategyExhaustive
		wantFrontier, err := ExploreParetoContext(context.Background(), wl.g, wl.p, SEAMapper(exh), exh)
		if err != nil {
			t.Fatalf("%s exhaustive: %v", wl.name, err)
		}
		want := frontierFingerprint(wantFrontier)
		assertSoundFrontier(t, wl.name, wl.p, wantFrontier, wl.deadline)

		for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			bnb := base
			bnb.Strategy = StrategyBranchAndBound
			bnb.Parallelism = par
			gotFrontier, err := ExploreParetoContext(context.Background(), wl.g, wl.p, SEAMapper(bnb), bnb)
			if err != nil {
				t.Fatalf("%s bnb par=%d: %v", wl.name, par, err)
			}
			if got := frontierFingerprint(gotFrontier); got != want {
				t.Errorf("%s par=%d: frontiers diverged:\n  exhaustive: %s\n  bnb:        %s",
					wl.name, par, want, got)
			}
		}
	}
}

// TestHomogeneousViaHeterogeneousPath: a single-type heterogeneous platform
// is the same hardware as the classic NewPlatform one, and the engine must
// return byte-identical designs for both — the behavior-preservation half of
// the generalization.
func TestHomogeneousViaHeterogeneousPath(t *testing.T) {
	g := taskgraph.MPEG2()
	classic := plat(4)
	viaHetero, err := arch.NewHeterogeneousPlatform(
		[]arch.ProcType{{Name: "renamed-arm7", Levels: arch.ARM7Levels3()}},
		[]int{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	c := cfg(taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames)
	c.SearchMoves = 150

	run := func(p *arch.Platform) (string, []string) {
		c := c
		per := recordDesigns(&c)
		best, err := Explore(g, p, SEAMapper(c), c)
		if err != nil {
			t.Fatal(err)
		}
		var pf []string
		for _, d := range per.designs(t) {
			pf = append(pf, designFingerprint(d))
		}
		return designFingerprint(best), pf
	}
	wantBest, wantPer := run(classic)
	gotBest, gotPer := run(viaHetero)
	if gotBest != wantBest {
		t.Errorf("single-type heterogeneous platform diverged:\n  classic: %s\n  hetero:  %s", wantBest, gotBest)
	}
	if fmt.Sprint(gotPer) != fmt.Sprint(wantPer) {
		t.Error("per-combination designs diverged between classic and single-type heterogeneous platforms")
	}
}

// TestHeterogeneousSampledDeterministic: the sampled strategy draws the same
// portfolio from the mixed-radix space at any parallelism.
func TestHeterogeneousSampledDeterministic(t *testing.T) {
	g := taskgraph.Fig8()
	p := heteroPlat(t, 1, 1)
	base := cfg(taskgraph.Fig8Deadline, 1)
	base.SearchMoves = 80
	base.Strategy = StrategySampled
	base.SampleBudget = 5

	run := func(par int) (string, []int) {
		c := base
		c.Parallelism = par
		var combos []int
		c.Progress = func(pr Progress) { combos = append(combos, pr.Combination) }
		best, err := Explore(g, p, SEAMapper(c), c)
		if err != nil {
			t.Fatal(err)
		}
		return designFingerprint(best), combos
	}
	best1, combos1 := run(1)
	best4, combos4 := run(4)
	if best1 != best4 || fmt.Sprint(combos1) != fmt.Sprint(combos4) {
		t.Fatalf("sampled mixed-space run not deterministic:\n  %s %v\n  %s %v", best1, combos1, best4, combos4)
	}
	if len(combos1) != 5 {
		t.Fatalf("visited %d combinations, want 5", len(combos1))
	}
	space, err := vscale.PlatformSpace(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range combos1 {
		if idx < 0 || idx >= space.Count() {
			t.Errorf("sampled combination index %d outside the %d-combination space", idx, space.Count())
		}
	}
}
