package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/faults"
	"seadopt/internal/sched"
	"seadopt/internal/taskgraph"
)

// TestEvaluatorMatchesEvaluate: the reusable evaluator must reproduce the
// one-shot path bit-for-bit across many random mappings and rebinds — the
// whole optimization stack sits on this equivalence.
func TestEvaluatorMatchesEvaluate(t *testing.T) {
	graphs := []*taskgraph.Graph{
		taskgraph.MPEG2(),
		taskgraph.Fig8(),
		taskgraph.MustRandom(taskgraph.DefaultRandomConfig(40), 7),
	}
	rng := rand.New(rand.NewSource(99))
	for _, g := range graphs {
		p := arch.MustNewPlatform(4, arch.ARM7Levels3())
		opt := Options{Iterations: 3, DeadlineSec: 5}
		e, err := NewEvaluator(g, p, ser(), opt)
		if err != nil {
			t.Fatal(err)
		}
		scalings := [][]int{{1, 1, 1, 1}, {2, 2, 3, 2}, {3, 3, 3, 3}}
		for _, scaling := range scalings {
			if err := e.Bind(scaling); err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 25; trial++ {
				m := sched.RandomMapping(rng, g.N(), 4)
				got, err := e.Evaluate(m)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Evaluate(g, p, m, scaling, ser(), opt)
				if err != nil {
					t.Fatal(err)
				}
				if got.Gamma != want.Gamma || got.PowerW != want.PowerW ||
					got.TMSeconds != want.TMSeconds || got.TotalRegBits != want.TotalRegBits ||
					got.MeetsDeadline != want.MeetsDeadline || got.TMCycles != want.TMCycles {
					t.Fatalf("%s scaling %v mapping %v:\n  evaluator: %v\n  one-shot:  %v",
						g.Name(), scaling, m, got, want)
				}
				for c := range got.PerCore {
					if got.PerCore[c] != want.PerCore[c] {
						t.Fatalf("%s scaling %v core %d: %+v != %+v",
							g.Name(), scaling, c, got.PerCore[c], want.PerCore[c])
					}
				}
			}
		}
	}
}

// TestEvaluationCloneIndependence: a cloned evaluation must survive the
// evaluator moving on to other mappings.
func TestEvaluationCloneIndependence(t *testing.T) {
	g := taskgraph.MPEG2()
	p := arch.MustNewPlatform(4, arch.ARM7Levels3())
	e, err := NewEvaluator(g, p, ser(), Options{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Bind([]int{2, 2, 3, 2}); err != nil {
		t.Fatal(err)
	}
	m1 := sched.RoundRobin(g.N(), 4)
	ev1, err := e.Evaluate(m1)
	if err != nil {
		t.Fatal(err)
	}
	kept := ev1.Clone()
	gamma1, tm1 := kept.Gamma, kept.TMSeconds
	mapping1 := kept.Schedule.Mapping.Clone()

	// Trample the evaluator's scratch with a different design.
	m2 := sched.Mapping{0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 3}
	if _, err := e.Evaluate(m2); err != nil {
		t.Fatal(err)
	}
	if err := e.Bind([]int{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Evaluate(m2); err != nil {
		t.Fatal(err)
	}

	if kept.Gamma != gamma1 || kept.TMSeconds != tm1 {
		t.Error("clone's metrics changed under evaluator reuse")
	}
	for i := range mapping1 {
		if kept.Schedule.Mapping[i] != mapping1[i] {
			t.Fatal("clone's schedule mapping changed under evaluator reuse")
		}
	}
}

// TestEvaluatorRequiresBind: Evaluate before Bind is a clean error.
func TestEvaluatorRequiresBind(t *testing.T) {
	g := taskgraph.Fig8()
	p := arch.MustNewPlatform(3, arch.ARM7Levels3())
	e, err := NewEvaluator(g, p, ser(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Evaluate(sched.RoundRobin(g.N(), 3)); err == nil {
		t.Error("Evaluate before Bind accepted")
	}
}

// TestZeroSERModel: a true zero soft error rate is a valid model yielding
// Γ = 0 without degenerating the rest of the evaluation.
func TestZeroSERModel(t *testing.T) {
	g := taskgraph.MPEG2()
	p := arch.MustNewPlatform(4, arch.ARM7Levels3())
	zero := faults.NewSERModel(0)
	ev, err := Evaluate(g, p, sched.RoundRobin(g.N(), 4), []int{1, 1, 1, 1}, zero,
		Options{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Gamma != 0 {
		t.Errorf("zero SER gave Γ = %v, want 0", ev.Gamma)
	}
	if ev.PowerW <= 0 || ev.TMSeconds <= 0 {
		t.Error("zero SER degenerated power/timing")
	}
}

// TestMakespanMatchesEvaluate: the makespan-only fast path must reproduce
// Evaluate's TMSeconds and deadline verdict bit-for-bit — the feasibility
// probe's hill climb runs on it and its accept/reject sequence must not
// change — at one iteration (where it skips the eq. (7) billing) and at
// several (where the pipelined T_M needs it), on the ideal fabric and a
// contended mesh. Its cutoff form must agree with Evaluate on which side
// of the cutoff T_M falls: exceeded only when TMSeconds > cutoff (and, at
// one iteration, exactly then), and otherwise the bit-identical T_M. Every
// call counts as one Makespan. Having clobbered the scheduler's buffers
// without refreshing the metrics pipeline, it must invalidate
// EvaluateDelta.
func TestMakespanMatchesEvaluate(t *testing.T) {
	graphs := []*taskgraph.Graph{
		taskgraph.MPEG2(),
		taskgraph.Fig8(),
		taskgraph.MustRandom(taskgraph.DefaultRandomConfig(40), 7),
	}
	platforms := []*arch.Platform{
		arch.MustNewPlatform(4, arch.ARM7Levels3()),
		arch.MustNewPlatform(4, arch.ARM7Levels3(), arch.WithInterconnect(arch.Interconnect{
			Topology: arch.TopologyMesh, BandwidthBps: 4e9, HopLatencySec: 1e-4,
		})),
	}
	rng := rand.New(rand.NewSource(4242))
	for _, iters := range []int{1, 3} {
		for _, g := range graphs {
			for pi, p := range platforms {
				opt := Options{Iterations: iters, DeadlineSec: 0.002}
				ref, err := NewEvaluator(g, p, ser(), opt)
				if err != nil {
					t.Fatal(err)
				}
				fast, err := NewEvaluator(g, p, ser(), opt)
				if err != nil {
					t.Fatal(err)
				}
				calls := int64(0)
				for _, scaling := range [][]int{{1, 1, 1, 1}, {2, 2, 3, 2}, {3, 3, 3, 3}} {
					if err := ref.Bind(scaling); err != nil {
						t.Fatal(err)
					}
					if err := fast.Bind(scaling); err != nil {
						t.Fatal(err)
					}
					for trial := 0; trial < 25; trial++ {
						m := sched.RandomMapping(rng, g.N(), 4)
						want, err := ref.Evaluate(m)
						if err != nil {
							t.Fatal(err)
						}
						where := fmt.Sprintf("%s platform %d iterations %d scaling %v mapping %v", g.Name(), pi, iters, scaling, m)
						tm, meets, err := fast.Makespan(m)
						if err != nil {
							t.Fatal(err)
						}
						calls++
						if tm != want.TMSeconds || meets != want.MeetsDeadline {
							t.Fatalf("%s: Makespan (%v, %v) != Evaluate (%v, %v)",
								where, tm, meets, want.TMSeconds, want.MeetsDeadline)
						}
						wantTM := want.TMSeconds
						for _, cutoff := range []float64{
							wantTM,
							math.Nextafter(wantTM, math.Inf(-1)),
							math.Nextafter(wantTM, math.Inf(1)),
							wantTM / 2,
							math.Inf(1),
						} {
							before := fast.Stats().MakespanDispatches
							tm, exceeded, err := fast.MakespanWithin(m, cutoff)
							if err != nil {
								t.Fatal(err)
							}
							calls++
							// A call that ran to the end dispatched every
							// task; one that stopped early, at least one.
							if d := fast.Stats().MakespanDispatches - before; d > int64(g.N()) || d < 1 || (!exceeded && d != int64(g.N())) {
								t.Fatalf("%s: cutoff %v (exceeded %v) counted %d dispatches of %d tasks", where, cutoff, exceeded, d, g.N())
							}
							switch {
							case exceeded && !(wantTM > cutoff):
								t.Fatalf("%s: cutoff %v exceeded, but Evaluate's T_M is %v", where, cutoff, wantTM)
							case !exceeded && math.Float64bits(tm) != math.Float64bits(wantTM):
								t.Fatalf("%s: cutoff %v gave T_M %v, Evaluate %v", where, cutoff, tm, wantTM)
							case iters == 1 && exceeded != (wantTM > cutoff):
								t.Fatalf("%s: cutoff %v exceeded = %v with Evaluate's T_M %v", where, cutoff, exceeded, wantTM)
							}
						}
					}
				}
				if got := fast.Stats().Makespans; got != calls {
					t.Fatalf("%s platform %d iterations %d: %d Makespans counted for %d calls", g.Name(), pi, iters, got, calls)
				}
			}
		}
	}

	// Makespan invalidates the delta path until the next full Evaluate.
	g := taskgraph.MPEG2()
	p := arch.MustNewPlatform(4, arch.ARM7Levels3())
	e, err := NewEvaluator(g, p, ser(), Options{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := []int{2, 2, 2, 2}
	if err := e.Bind(s); err != nil {
		t.Fatal(err)
	}
	m := sched.RoundRobin(g.N(), 4)
	if _, err := e.Evaluate(m); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Makespan(m); err != nil {
		t.Fatal(err)
	}
	if _, err := e.EvaluateDelta(s, []int{2, 2, 2, 3}); err == nil {
		t.Fatal("EvaluateDelta after Makespan did not error")
	}
}
