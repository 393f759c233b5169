package mapping

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/pareto"
	"seadopt/internal/taskgraph"
)

// frontierFingerprint renders an ordered frontier byte-for-byte.
func frontierFingerprint(frontier []*Design) string {
	parts := make([]string, len(frontier))
	for i, d := range frontier {
		parts[i] = designFingerprint(d)
	}
	return strings.Join(parts, " | ")
}

// TestParetoMatchesExhaustive is the Pareto mode's equivalence property:
// for the paper workloads (MPEG-2, Fig. 8) and seeded §V random graphs the
// branch-and-bound frontier must be byte-identical to the exhaustive one at
// Parallelism 1, 4 and GOMAXPROCS, and the frontier itself must be sound:
// feasible, mutually non-dominated, ordered by ascending power.
func TestParetoMatchesExhaustive(t *testing.T) {
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
		wantFrontier, err := ExploreParetoContext(context.Background(), wl.g, p, SEAMapper(exh), exh)
		if err != nil {
			t.Fatalf("%s exhaustive: %v", wl.name, err)
		}
		want := frontierFingerprint(wantFrontier)
		assertSoundFrontier(t, wl.name, p, wantFrontier, wl.deadline)

		for _, par := range parallelisms {
			bnb := base
			bnb.Strategy = StrategyBranchAndBound
			bnb.Parallelism = par
			gotFrontier, err := ExploreParetoContext(context.Background(), wl.g, p, SEAMapper(bnb), bnb)
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

// assertSoundFrontier checks the structural frontier invariants: every
// member meets the deadline, no member dominates or exactly ties another,
// and the ordering is ascending nominal power. A single infeasible member is
// the documented all-infeasible fallback (the scalar degenerate verdict) and
// is exempt.
func assertSoundFrontier(t *testing.T, name string, p *arch.Platform, frontier []*Design, deadline float64) {
	t.Helper()
	if len(frontier) == 0 {
		t.Fatalf("%s: empty frontier", name)
	}
	if len(frontier) == 1 && !frontier[0].Eval.MeetsDeadline {
		return // all-infeasible fallback: the scalar least-infeasible design
	}
	vecs := make([]pareto.Vector, len(frontier))
	for i, d := range frontier {
		if deadline > 0 && !d.Eval.MeetsDeadline {
			t.Errorf("%s: frontier member %d misses the deadline", name, i)
		}
		nominal, err := p.DynamicPower(d.Scaling, nil)
		if err != nil {
			t.Fatal(err)
		}
		vecs[i] = pareto.Vector{Power: nominal, Makespan: d.Eval.TMSeconds, Gamma: d.Eval.Gamma}
		if i > 0 && vecs[i].Power < vecs[i-1].Power {
			t.Errorf("%s: frontier not ordered by ascending power at %d", name, i)
		}
	}
	for i := range vecs {
		for j := range vecs {
			if i == j {
				continue
			}
			if vecs[i].Dominates(vecs[j], pareto.DefaultObjectives) {
				t.Errorf("%s: frontier member %d dominates member %d", name, i, j)
			}
			if vecs[i].Equal(vecs[j], pareto.DefaultObjectives) {
				t.Errorf("%s: frontier members %d and %d tie exactly", name, i, j)
			}
		}
	}
}

// TestParetoDeterministicEvents: the Pareto event stream — indices,
// verdicts, frontier sizes, admissions and the running best — is identical
// at any parallelism.
func TestParetoDeterministicEvents(t *testing.T) {
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(25), 4)
	p := plat(4)
	base := cfg(taskgraph.RandomDeadline(25)*0.3, 1)
	base.SearchMoves = 120

	stream := func(par int) []string {
		c := base
		c.Parallelism = par
		var out []string
		c.Progress = func(pr Progress) {
			out = append(out, fmt.Sprintf("%d/%d c=%d %v pruned=%v skipped=%v front=%d admitted=%v best=%s",
				pr.Index, pr.Total, pr.Combination, pr.Scaling, pr.Pruned, pr.Skipped,
				pr.FrontierSize, pr.Admitted, designFingerprint(pr.Best)))
		}
		if _, err := ExploreParetoContext(context.Background(), g, p, SEAMapper(c), c); err != nil {
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

// TestParetoContainsScalarOptimum: the minimum-power frontier member
// realizes the same nominal power as the scalar loop's chosen design — the
// scalar answer is one point of the surface the frontier keeps whole.
func TestParetoContainsScalarOptimum(t *testing.T) {
	g := taskgraph.MPEG2()
	p := plat(4)
	c := cfg(taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames)
	c.SearchMoves = 150

	scalarBest, err := Explore(g, p, SEAMapper(c), c)
	if err != nil {
		t.Fatal(err)
	}
	frontier, err := ExploreParetoContext(context.Background(), g, p, SEAMapper(c), c)
	if err != nil {
		t.Fatal(err)
	}
	wantNominal, err := p.DynamicPower(scalarBest.Scaling, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotNominal, err := p.DynamicPower(frontier[0].Scaling, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotNominal != wantNominal {
		t.Errorf("min-power frontier member has nominal %v, scalar best %v", gotNominal, wantNominal)
	}
	if len(frontier) < 2 {
		t.Logf("note: frontier has %d member(s) on MPEG-2 — trade-off surface collapsed", len(frontier))
	}
}

// TestParetoBnBPrunesAndSkips: on a tight-deadline workload the deadline
// bound prunes, and with the power-only objective the frontier's
// bound-dominance skips every combination pricier than the first feasible
// member — while the frontier stays byte-identical to exhaustive. (Under
// the full three-objective trade-off, skips need a zero-Γ member to be
// admissible, so the walk relies on deadline pruning alone; the power-only
// subset is where frontier dominance provably engages.)
func TestParetoBnBPrunesAndSkips(t *testing.T) {
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(30), 8)
	p := plat(3)
	base := cfg(taskgraph.RandomDeadline(30)*0.5, 1)
	base.SearchMoves = 120
	base.Objectives = pareto.ObjPower

	exh := base
	exh.Strategy = StrategyExhaustive
	want, err := ExploreParetoContext(context.Background(), g, p, SEAMapper(exh), exh)
	if err != nil {
		t.Fatal(err)
	}

	bnb := base
	bnb.Strategy = StrategyBranchAndBound
	var pruned, skipped int
	bnb.Progress = func(pr Progress) {
		if pr.Pruned {
			pruned++
		}
		if pr.Skipped {
			skipped++
		}
	}
	got, err := ExploreParetoContext(context.Background(), g, p, SEAMapper(bnb), bnb)
	if err != nil {
		t.Fatal(err)
	}
	if pruned == 0 {
		t.Error("tight deadline pruned nothing; bound is vacuous")
	}
	if skipped == 0 {
		t.Error("power/makespan objectives skipped nothing; frontier bound-dominance never engaged")
	}
	if frontierFingerprint(got) != frontierFingerprint(want) {
		t.Errorf("pruned frontier diverged:\n  exhaustive: %s\n  bnb:        %s",
			frontierFingerprint(want), frontierFingerprint(got))
	}
}

// TestParetoImpossibleDeadline: with nothing feasible the Pareto mode falls
// back to the scalar exhaustive verdict as a single-entry frontier.
func TestParetoImpossibleDeadline(t *testing.T) {
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
	frontier, err := ExploreParetoContext(context.Background(), g, p, SEAMapper(base), base)
	if err != nil {
		t.Fatal(err)
	}
	if len(frontier) != 1 {
		t.Fatalf("all-infeasible frontier has %d members, want 1", len(frontier))
	}
	if got, want := designFingerprint(frontier[0]), designFingerprint(wantBest); got != want {
		t.Errorf("fallback diverged from scalar exhaustive:\n  want: %s\n  got:  %s", want, got)
	}
	if frontier[0].Eval.MeetsDeadline {
		t.Error("impossible deadline reported met")
	}

	// Under the exhaustive strategy nothing is pruned, so the degenerate
	// verdict comes from the embedded scalar fold without a second pass —
	// and must be byte-identical to the branch-and-bound fallback's.
	exhPareto := exh
	exhFrontier, err := ExploreParetoContext(context.Background(), g, p, SEAMapper(exhPareto), exhPareto)
	if err != nil {
		t.Fatal(err)
	}
	if len(exhFrontier) != 1 {
		t.Fatalf("exhaustive all-infeasible frontier has %d members, want 1", len(exhFrontier))
	}
	if got, want := designFingerprint(exhFrontier[0]), designFingerprint(wantBest); got != want {
		t.Errorf("embedded scalar verdict diverged from exhaustive:\n  want: %s\n  got:  %s", want, got)
	}
}

// TestParetoObjectiveSubsets: restricting the objectives yields sound
// frontiers whose dominance is judged on the active components only, and
// BnB still matches exhaustive under every subset.
func TestParetoObjectiveSubsets(t *testing.T) {
	g := taskgraph.MPEG2()
	p := plat(4)
	for _, obj := range []pareto.Objectives{
		pareto.ObjPower, pareto.ObjGamma,
		pareto.ObjPower | pareto.ObjGamma,
		pareto.ObjMakespan | pareto.ObjGamma,
	} {
		base := cfg(taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames)
		base.SearchMoves = 120
		base.Objectives = obj

		exh := base
		exh.Strategy = StrategyExhaustive
		want, err := ExploreParetoContext(context.Background(), g, p, SEAMapper(exh), exh)
		if err != nil {
			t.Fatalf("obj %v exhaustive: %v", obj, err)
		}
		got, err := ExploreParetoContext(context.Background(), g, p, SEAMapper(base), base)
		if err != nil {
			t.Fatalf("obj %v bnb: %v", obj, err)
		}
		if frontierFingerprint(got) != frontierFingerprint(want) {
			t.Errorf("obj %v: frontier diverged between strategies", obj)
		}
		for i, a := range want {
			for j, b := range want {
				if i == j {
					continue
				}
				na, _ := p.DynamicPower(a.Scaling, nil)
				nb, _ := p.DynamicPower(b.Scaling, nil)
				va := pareto.Vector{Power: na, Makespan: a.Eval.TMSeconds, Gamma: a.Eval.Gamma}
				vb := pareto.Vector{Power: nb, Makespan: b.Eval.TMSeconds, Gamma: b.Eval.Gamma}
				if va.Dominates(vb, obj) || va.Equal(vb, obj) {
					t.Errorf("obj %v: members %d/%d not mutually non-dominated", obj, i, j)
				}
			}
		}
	}
}
