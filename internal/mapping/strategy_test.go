package mapping

import (
	"fmt"
	"runtime"
	"testing"

	"seadopt/internal/taskgraph"
	"seadopt/internal/vscale"
)

func TestParseStrategy(t *testing.T) {
	for name, want := range map[string]Strategy{
		"":                 StrategyBranchAndBound,
		"bnb":              StrategyBranchAndBound,
		"branch-and-bound": StrategyBranchAndBound,
		"exhaustive":       StrategyExhaustive,
		"sampled":          StrategySampled,
	} {
		got, err := ParseStrategy(name)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseStrategy("greedy"); err == nil {
		t.Error("unknown strategy accepted")
	}
	bad := cfg(1, 1)
	bad.Strategy = "greedy"
	if bad.Validate() == nil {
		t.Error("Config.Validate accepted an unknown strategy")
	}
	bad = cfg(1, 1)
	bad.SampleBudget = -1
	if bad.Validate() == nil {
		t.Error("Config.Validate accepted a negative sample budget")
	}
}

// TestBranchAndBoundMatchesExhaustive is the equivalence property the
// default strategy rests on: for the paper workloads (MPEG-2, Fig. 8) and
// seeded §V random graphs, StrategyBranchAndBound must return a
// byte-identical best Design to StrategyExhaustive at Parallelism 1, 4 and
// GOMAXPROCS — while actually pruning or skipping part of the space.
func TestBranchAndBoundMatchesExhaustive(t *testing.T) {
	workloads := []struct {
		name     string
		g        *taskgraph.Graph
		cores    int
		deadline float64
		iters    int
	}{
		{"mpeg2", taskgraph.MPEG2(), 4, taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames},
		{"fig8", taskgraph.Fig8(), 3, taskgraph.Fig8Deadline, 1},
		{"random20", taskgraph.MustRandom(taskgraph.DefaultRandomConfig(20), 3), 4, taskgraph.RandomDeadline(20), 1},
		{"random30", taskgraph.MustRandom(taskgraph.DefaultRandomConfig(30), 8), 3, taskgraph.RandomDeadline(30) * 0.2, 1},
	}
	parallelisms := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, wl := range workloads {
		p := plat(wl.cores)
		base := cfg(wl.deadline, wl.iters)
		base.SearchMoves = 150

		exh := base
		exh.Strategy = StrategyExhaustive
		wantPer := recordDesigns(&exh)
		wantBest, err := Explore(wl.g, p, SEAMapper(exh), exh)
		if err != nil {
			t.Fatalf("%s exhaustive: %v", wl.name, err)
		}
		want := designFingerprint(wantBest)

		for _, par := range parallelisms {
			bnb := base
			bnb.Strategy = StrategyBranchAndBound
			bnb.Parallelism = par
			var evaluated, avoided int
			bnb.Progress = func(pr Progress) {
				if pr.Pruned || pr.Skipped {
					avoided++
				} else {
					evaluated++
				}
			}
			gotPer := recordDesigns(&bnb)
			gotBest, err := Explore(wl.g, p, SEAMapper(bnb), bnb)
			if err != nil {
				t.Fatalf("%s bnb par=%d: %v", wl.name, par, err)
			}
			if got := designFingerprint(gotBest); got != want {
				t.Errorf("%s par=%d: designs diverged:\n  exhaustive: %s\n  bnb:        %s",
					wl.name, par, want, got)
			}
			assertDesignsMatch(t, fmt.Sprintf("%s par=%d", wl.name, par), wantPer.designs(t), gotPer.designs(t))
			if avoided == 0 {
				t.Errorf("%s par=%d: branch-and-bound avoided nothing (evaluated %d) — pruning never engaged",
					wl.name, par, evaluated)
			}
		}
	}
}

// TestBranchAndBoundDeterministicEvents: the full event stream — indices,
// pruned/skipped verdicts, scalings — is identical at any parallelism, not
// just the final design.
func TestBranchAndBoundDeterministicEvents(t *testing.T) {
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(25), 4)
	p := plat(4)
	base := cfg(taskgraph.RandomDeadline(25)*0.3, 1)
	base.SearchMoves = 120

	stream := func(par int) []string {
		c := base
		c.Parallelism = par
		var out []string
		c.Progress = func(pr Progress) {
			out = append(out, fmt.Sprintf("%d/%d c=%d %v pruned=%v skipped=%v best=%s",
				pr.Index, pr.Total, pr.Combination, pr.Scaling, pr.Pruned, pr.Skipped,
				designFingerprint(pr.Best)))
		}
		if _, err := Explore(g, p, SEAMapper(c), c); err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := stream(1)
	for _, par := range []int{4, runtime.GOMAXPROCS(0)} {
		got := stream(par)
		if len(got) != len(ref) {
			t.Fatalf("par=%d: %d events, want %d", par, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("par=%d event %d diverged:\n  seq: %s\n  par: %s", par, i, ref[i], got[i])
			}
		}
	}
}

// TestBranchAndBoundImpossibleDeadline: when nothing is feasible the engine
// falls back to the exhaustive verdict, so even the "least infeasible"
// design matches byte for byte instead of disappearing into the pruned set.
func TestBranchAndBoundImpossibleDeadline(t *testing.T) {
	g := taskgraph.Fig8()
	p := plat(2)
	base := cfg(1e-9, 1) // nanosecond deadline: nothing is feasible
	base.SearchMoves = 100

	exh := base
	exh.Strategy = StrategyExhaustive
	wantBest, err := Explore(g, p, SEAMapper(exh), exh)
	if err != nil {
		t.Fatal(err)
	}
	if wantBest.Eval.MeetsDeadline {
		t.Fatal("impossible deadline reported met")
	}
	bnb := base
	bnb.Strategy = StrategyBranchAndBound
	pruned := 0
	bnb.Progress = func(pr Progress) {
		if pr.Pruned {
			pruned++
		}
	}
	tel := NewTelemetry()
	bnb.Telemetry = tel
	gotBest, err := Explore(g, p, SEAMapper(bnb), bnb)
	if err != nil {
		t.Fatal(err)
	}
	if pruned == 0 {
		t.Error("nanosecond deadline pruned nothing; bound is vacuous")
	}
	if got, want := designFingerprint(gotBest), designFingerprint(wantBest); got != want {
		t.Errorf("fallback diverged from exhaustive:\n  exhaustive: %s\n  bnb:        %s", want, got)
	}
	// The fallback re-explores the whole space, so the verdicts of both
	// passes cover it twice despite the first pass pruning combinations.
	space, err := vscale.PlatformSpace(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tel.Stats().Combos.Total, int64(2*space.Count()); got != want {
		t.Errorf("Combos.Total = %d after the all-infeasible fallback, want %d (two passes)", got, want)
	}
}

// TestSampledStrategy: deterministic per seed, approximate by contract —
// the sample's best must match exhaustive's design at the same combination
// (stable index ⇒ same mapper stream), and the budget caps visited work.
func TestSampledStrategy(t *testing.T) {
	g := taskgraph.MPEG2()
	p := plat(4)
	base := cfg(taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames)
	base.SearchMoves = 120
	base.Strategy = StrategySampled
	base.SampleBudget = 7

	run := func(par int) (string, []int) {
		c := base
		c.Parallelism = par
		var combos []int
		c.Progress = func(pr Progress) {
			if pr.Total != 7 {
				t.Errorf("Total = %d, want sample budget 7", pr.Total)
			}
			combos = append(combos, pr.Combination)
		}
		best, err := Explore(g, p, SEAMapper(c), c)
		if err != nil {
			t.Fatal(err)
		}
		return designFingerprint(best), combos
	}
	best1, combos1 := run(1)
	best4, combos4 := run(4)
	if best1 != best4 || fmt.Sprint(combos1) != fmt.Sprint(combos4) {
		t.Fatalf("sampled run not deterministic across parallelism:\n  %s %v\n  %s %v",
			best1, combos1, best4, combos4)
	}
	if len(combos1) != 7 {
		t.Fatalf("visited %d combinations, want 7", len(combos1))
	}

	// Cross-check one sampled combination against an exhaustive run: the
	// stable combination index must give byte-identical per-combination
	// designs wherever both strategies evaluate.
	exh := cfg(taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames)
	exh.SearchMoves = 120
	exh.Strategy = StrategyExhaustive
	rec := recordDesigns(&exh)
	if _, err := Explore(g, p, SEAMapper(exh), exh); err != nil {
		t.Fatal(err)
	}
	per := rec.designs(t)
	smp := base
	var sampledDesigns []*Design
	var sampledCombos []int
	smp.Progress = func(pr Progress) {
		if !pr.Pruned && !pr.Skipped {
			sampledDesigns = append(sampledDesigns, pr.Design)
			sampledCombos = append(sampledCombos, pr.Combination)
		}
	}
	if _, err := Explore(g, p, SEAMapper(smp), smp); err != nil {
		t.Fatal(err)
	}
	if len(sampledDesigns) == 0 {
		t.Fatal("sample evaluated nothing")
	}
	for i, d := range sampledDesigns {
		idx := sampledCombos[i]
		if got, want := designFingerprint(d), designFingerprint(per[idx]); got != want {
			t.Errorf("sampled combination %d diverged from exhaustive:\n  exhaustive: %s\n  sampled:    %s", idx, want, got)
		}
	}
}

// assertDesignsMatch compares a pruning run's per-combination designs with
// the exhaustive run's: one entry per combination, and every design the
// pruning run evaluated matches its exhaustive twin byte for byte (stable
// combination index ⇒ same seed).
func assertDesignsMatch(t *testing.T, label string, exhaustive, got []*Design) {
	t.Helper()
	if len(got) != len(exhaustive) {
		t.Errorf("%s: %d combination designs, exhaustive %d", label, len(got), len(exhaustive))
		return
	}
	for i, d := range got {
		if d == nil {
			continue
		}
		if g, w := designFingerprint(d), designFingerprint(exhaustive[i]); g != w {
			t.Errorf("%s: design %d diverged:\n  exhaustive: %s\n  pruned run: %s", label, i, w, g)
		}
	}
}
