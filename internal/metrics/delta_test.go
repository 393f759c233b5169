package metrics

// Property tests for the scaling walks: the histogram Cursor behind
// branch-and-bound dispatch must be bit-identical to fresh Bounds queries —
// that is what lets the explore engine use it without weakening its
// byte-identical-to-exhaustive guarantee — and Evaluator.EvaluateDelta to a
// full Bind + Evaluate.

import (
	"fmt"
	"math/rand"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/faults"
	"seadopt/internal/sched"
	"seadopt/internal/taskgraph"
)

// deltaPlat is a 10-core three-table platform: enough symmetry classes that
// histogram bookkeeping is non-trivial, small enough for long random walks.
func deltaPlat(t testing.TB) *arch.Platform {
	t.Helper()
	types := []arch.ProcType{
		{Name: "fast4", Levels: arch.ARM7Levels4()},
		{Name: "arm7", Levels: arch.ARM7Levels3()},
		{Name: "low2", Levels: arch.ARM7Levels2()},
	}
	coreTypes := []int{0, 0, 0, 1, 1, 1, 1, 2, 2, 2}
	p, err := arch.NewHeterogeneousPlatform(types, coreTypes)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// deltaNoCPlat is deltaPlat behind a contended 2D-mesh NoC: link bandwidth
// low enough that transfer times rival task durations (§V costs are
// multiples of 3.5e6 cycles, so edges carry ~1e8–1e9 bits), making the
// interconnect path of scheduler, evaluator and bounds load-bearing in the
// walks below.
func deltaNoCPlat(t testing.TB) *arch.Platform {
	t.Helper()
	types := []arch.ProcType{
		{Name: "fast4", Levels: arch.ARM7Levels4()},
		{Name: "arm7", Levels: arch.ARM7Levels3()},
		{Name: "low2", Levels: arch.ARM7Levels2()},
	}
	coreTypes := []int{0, 0, 0, 1, 1, 1, 1, 2, 2, 2}
	p, err := arch.NewHeterogeneousPlatform(types, coreTypes, arch.WithInterconnect(arch.Interconnect{
		Topology:      arch.TopologyMesh,
		BandwidthBps:  4e9,
		HopLatencySec: 1e-4,
	}))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// deltaPlatforms pairs the ideal and contended-NoC variants every
// incremental-machinery property below must hold on.
func deltaPlatforms(t testing.TB) map[string]*arch.Platform {
	return map[string]*arch.Platform{"ideal": deltaPlat(t), "noc": deltaNoCPlat(t)}
}

// randScaling draws a uniformly random valid (not necessarily canonical)
// scaling vector for p.
func randScaling(rng *rand.Rand, p *arch.Platform) []int {
	s := make([]int, p.Cores())
	for c := range s {
		s[c] = 1 + rng.Intn(p.CoreNumLevels(c))
	}
	return s
}

// TestCursorMatchesFreshBounds drives a Cursor down a random walk of
// scaling vectors — single-core nudges, multi-core jumps, occasional
// Resets — and demands bit-equality with fresh Bounds queries at every
// step. This is the property that lets a claim's O(changed) bound
// probe replace the O(cores) recomputation without perturbing one pruning
// decision.
func TestCursorMatchesFreshBounds(t *testing.T) {
	for name, p := range deltaPlatforms(t) {
		t.Run(name, func(t *testing.T) { testCursorMatchesFreshBounds(t, p) })
	}
}

func testCursorMatchesFreshBounds(t *testing.T, p *arch.Platform) {
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(30), 9)
	b := NewBounds(g, p, 3)
	cu := b.Cursor()
	rng := rand.New(rand.NewSource(42))

	cur := randScaling(rng, p)
	if _, err := cu.Advance(cur); err != nil { // unprimed Advance = Reset
		t.Fatal(err)
	}
	for step := 0; step < 500; step++ {
		switch rng.Intn(4) {
		case 0: // single-core nudge
			c := rng.Intn(p.Cores())
			cur[c] = 1 + rng.Intn(p.CoreNumLevels(c))
		case 1: // multi-core jump
			for i := 0; i < 3; i++ {
				c := rng.Intn(p.Cores())
				cur[c] = 1 + rng.Intn(p.CoreNumLevels(c))
			}
		case 2: // full redraw
			cur = randScaling(rng, p)
		case 3: // no-op advance (changed = 0)
		}
		if rng.Intn(20) == 0 {
			if err := cu.Reset(cur); err != nil {
				t.Fatal(err)
			}
		} else if _, err := cu.Advance(cur); err != nil {
			t.Fatal(err)
		}
		wantTM, err := b.TMLowerBound(cur)
		if err != nil {
			t.Fatal(err)
		}
		wantNom, err := b.NominalPower(cur)
		if err != nil {
			t.Fatal(err)
		}
		if got := cu.TMLowerBound(); got != wantTM {
			t.Fatalf("step %d %v: cursor TM bound %x, fresh %x", step, cur, got, wantTM)
		}
		if got := cu.NominalPower(); got != wantNom {
			t.Fatalf("step %d %v: cursor nominal %x, fresh %x", step, cur, got, wantNom)
		}
		// The histogram nominal must also be bit-identical to the
		// platform's full-utilization dynamic power — the quantity the
		// acceptance rule and the Pareto tests recompute independently.
		if got := cu.NominalPower(); got != mustDynamic(t, p, cur) {
			t.Fatalf("step %d %v: cursor nominal %x, DynamicPower %x", step, cur, got, mustDynamic(t, p, cur))
		}
	}

	// A rejected Advance must leave the cursor unchanged.
	before := cu.NominalPower()
	bad := append([]int(nil), cur...)
	bad[0] = 99
	if _, err := cu.Advance(bad); err == nil {
		t.Fatal("cursor accepted an out-of-range coefficient")
	}
	if got := cu.NominalPower(); got != before {
		t.Fatalf("failed Advance moved the cursor: %x != %x", got, before)
	}
}

func mustDynamic(t *testing.T, p *arch.Platform, scaling []int) float64 {
	t.Helper()
	w, err := p.DynamicPower(scaling, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// evalFingerprint renders every analytic field of an Evaluation with %x so
// last-bit float differences fail the comparison.
func evalFingerprint(ev *Evaluation) string {
	s := fmt.Sprintf("R=%d mk=%x tm=%x tmc=%x P=%x G=%x meets=%v",
		ev.TotalRegBits, ev.MakespanSec, ev.TMSeconds, ev.TMCycles,
		ev.PowerW, ev.Gamma, ev.MeetsDeadline)
	for _, cm := range ev.PerCore {
		s += fmt.Sprintf("|c%d r%d b%d cy%d bs%x ex%x lps%x l%x g%x u%x",
			cm.Core, cm.RegBits, cm.BaselineBits, cm.BusyCycles, cm.BusySec,
			cm.ExposureSec, cm.LambdaPerSec, cm.Lambda, cm.Gamma, cm.Utilization)
	}
	return s
}

// TestEvaluateDeltaMatchesFull walks two evaluators down the same random
// scaling sequence — one moving by EvaluateDelta, one by full Bind +
// Evaluate — and demands bit-identical Evaluations at every step. There is
// one delta path, a rebind and re-evaluation of the last mapping; the
// mapping leaves two cores idle so that the walk also covers moves of idle
// cores only.
func TestEvaluateDeltaMatchesFull(t *testing.T) {
	for name, p := range deltaPlatforms(t) {
		t.Run(name, func(t *testing.T) { testEvaluateDeltaMatchesFull(t, p) })
	}
}

func testEvaluateDeltaMatchesFull(t *testing.T, p *arch.Platform) {
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(30), 9)
	opt := Options{Iterations: 3, DeadlineSec: taskgraph.RandomDeadline(30)}
	ser := faults.NewSERModel(faults.DefaultSER)

	newEval := func() *Evaluator {
		e, err := NewEvaluator(g, p, ser, opt)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	delta, full := newEval(), newEval()
	m := sched.RoundRobin(g.N(), p.Cores()-2) // cores 8 and 9 stay idle
	rng := rand.New(rand.NewSource(7))

	cur := randScaling(rng, p)
	if err := delta.Bind(cur); err != nil {
		t.Fatal(err)
	}
	if _, err := delta.Evaluate(m); err != nil {
		t.Fatal(err)
	}
	idleMoveSeen := false
	for step := 0; step < 200; step++ {
		next := append([]int(nil), cur...)
		switch rng.Intn(3) {
		case 0: // one loaded core
			c := rng.Intn(p.Cores() - 2)
			next[c] = 1 + rng.Intn(p.CoreNumLevels(c))
		case 1: // idle cores only
			for _, c := range []int{8, 9} {
				next[c] = 1 + rng.Intn(p.CoreNumLevels(c))
			}
			if next[8] != cur[8] || next[9] != cur[9] {
				idleMoveSeen = true
			}
		case 2: // mixed jump
			for i := 0; i < 3; i++ {
				c := rng.Intn(p.Cores())
				next[c] = 1 + rng.Intn(p.CoreNumLevels(c))
			}
		}
		dev, err := delta.EvaluateDelta(cur, next)
		if err != nil {
			t.Fatalf("step %d: delta %v -> %v: %v", step, cur, next, err)
		}
		if err := full.Bind(next); err != nil {
			t.Fatal(err)
		}
		fev, err := full.Evaluate(m)
		if err != nil {
			t.Fatal(err)
		}
		if d, f := evalFingerprint(dev), evalFingerprint(fev); d != f {
			t.Fatalf("step %d %v -> %v: evaluations diverged\n  delta: %s\n  full:  %s",
				step, cur, next, d, f)
		}
		cur = next
	}
	if !idleMoveSeen {
		t.Fatal("walk never moved the idle cores alone")
	}

	// A stale prev is an error, and the failed call must not move the
	// evaluator: the next correctly-named move still matches.
	stale := append([]int(nil), cur...)
	stale[0] = cur[0]%p.CoreNumLevels(0) + 1
	if stale[0] == cur[0] {
		t.Fatal("bad test setup: stale == cur")
	}
	if _, err := delta.EvaluateDelta(stale, cur); err == nil {
		t.Fatal("EvaluateDelta accepted a stale prev vector")
	}
	next := append([]int(nil), cur...)
	next[0] = stale[0]
	dev, err := delta.EvaluateDelta(cur, next)
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Bind(next); err != nil {
		t.Fatal(err)
	}
	fev, err := full.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	if d, f := evalFingerprint(dev), evalFingerprint(fev); d != f {
		t.Fatalf("post-error move diverged\n  delta: %s\n  full:  %s", d, f)
	}
}

// TestEvaluateDeltaRequiresEvaluate: the delta form re-evaluates "the
// mapping of the most recent Evaluate call", so calling it before any
// Evaluate is a contract error, not a crash.
func TestEvaluateDeltaRequiresEvaluate(t *testing.T) {
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(10), 1)
	p := deltaPlat(t)
	e, err := NewEvaluator(g, p, faults.NewSERModel(faults.DefaultSER), Options{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := p.MinPowerScaling()
	if _, err := e.EvaluateDelta(s, s); err == nil {
		t.Fatal("EvaluateDelta before Bind/Evaluate did not error")
	}
	if err := e.Bind(s); err != nil {
		t.Fatal(err)
	}
	if _, err := e.EvaluateDelta(s, s); err == nil {
		t.Fatal("EvaluateDelta before the first Evaluate did not error")
	}
}
