package metrics

import (
	"math/rand"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/faults"
	"seadopt/internal/sched"
	"seadopt/internal/taskgraph"
	"seadopt/internal/vscale"
)

// TestTMLowerBoundAdmissible is the property the branch-and-bound pruning
// rests on: for every graph × scaling × mapping tried, the bound must not
// exceed the real scheduled T_M — at single-iteration and pipelined
// semantics alike. A single violation would let the engine prune a
// combination that is actually feasible.
func TestTMLowerBoundAdmissible(t *testing.T) {
	graphs := []struct {
		g     *taskgraph.Graph
		iters int
	}{
		{taskgraph.MPEG2(), taskgraph.MPEG2Frames},
		{taskgraph.MPEG2(), 1},
		{taskgraph.Fig8(), 1},
		{taskgraph.MustRandom(taskgraph.DefaultRandomConfig(30), 11), 1},
		{taskgraph.MustRandom(taskgraph.DefaultRandomConfig(60), 5), 4},
	}
	// Fabrics the property must hold under. The contended variants are
	// sized so §V-scale edges (~1e8 bits) take comparable time to tasks —
	// transfer latency and queuing genuinely shape the schedules the bound
	// is tested against.
	fabrics := map[string]*arch.Interconnect{
		"ideal": nil,
		"bus":   {Topology: arch.TopologyBus, BandwidthBps: 4e9, HopLatencySec: 1e-4},
		"mesh":  {Topology: arch.TopologyMesh, BandwidthBps: 2e9, HopLatencySec: 5e-4},
	}
	ser := faults.NewSERModel(faults.DefaultSER)
	rng := rand.New(rand.NewSource(99))
	for fname, fabric := range fabrics {
		for _, tc := range graphs {
			for _, cores := range []int{2, 4, 6} {
				var opts []arch.Option
				if fabric != nil {
					opts = append(opts, arch.WithInterconnect(*fabric))
				}
				p, err := arch.NewPlatform(cores, arch.ARM7Levels3(), opts...)
				if err != nil {
					t.Fatal(err)
				}
				b := NewBounds(tc.g, p, tc.iters)
				combos, err := vscale.All(cores, 3)
				if err != nil {
					t.Fatal(err)
				}
				e, err := NewEvaluator(tc.g, p, ser, Options{Iterations: tc.iters})
				if err != nil {
					t.Fatal(err)
				}
				for _, scaling := range combos {
					lb, err := b.TMLowerBound(scaling)
					if err != nil {
						t.Fatal(err)
					}
					if lb <= 0 {
						t.Fatalf("%s %s cores=%d scaling %v: non-positive bound %v", fname, tc.g.Name(), cores, scaling, lb)
					}
					if err := e.Bind(scaling); err != nil {
						t.Fatal(err)
					}
					for trial := 0; trial < 8; trial++ {
						var m sched.Mapping
						switch trial {
						case 0:
							m = sched.RoundRobin(tc.g.N(), cores)
						case 1:
							m = make(sched.Mapping, tc.g.N()) // everything on core 0
						default:
							m = sched.RandomMapping(rng, tc.g.N(), cores)
						}
						ev, err := e.Evaluate(m)
						if err != nil {
							t.Fatal(err)
						}
						if ev.TMSeconds < lb*(1-1e-12) {
							t.Fatalf("%s %s cores=%d scaling %v mapping %v: T_M %.9g beats the 'lower bound' %.9g",
								fname, tc.g.Name(), cores, scaling, m, ev.TMSeconds, lb)
						}
					}
				}
			}
		}
	}
}

// TestCommBoundOnlyTightens: the interconnect-aware term may only raise the
// makespan lower bound, never lower it — that is what keeps every existing
// byte-identity property intact — and on a connected graph with a slow
// enough fabric it must actually raise it (the term is not vacuous).
func TestCommBoundOnlyTightens(t *testing.T) {
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(30), 11)
	combos, err := vscale.All(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	ideal := NewBounds(g, arch.MustNewPlatform(4, arch.ARM7Levels3()), 1)
	// 10 Mbit/s: a §V unit edge (3.5e6 cycles ≈ 1.12e8 bits) takes ~11 s —
	// above the serial-execution bound, so the dichotomy must bite.
	slowBus, err := arch.NewPlatform(4, arch.ARM7Levels3(), arch.WithInterconnect(arch.Interconnect{
		Topology: arch.TopologyBus, BandwidthBps: 1e7, HopLatencySec: 1e-3,
	}))
	if err != nil {
		t.Fatal(err)
	}
	comm := NewBounds(g, slowBus, 1)
	tightened := false
	for _, s := range combos {
		lb0, err := ideal.TMLowerBound(s)
		if err != nil {
			t.Fatal(err)
		}
		lb1, err := comm.TMLowerBound(s)
		if err != nil {
			t.Fatal(err)
		}
		if lb1 < lb0 {
			t.Fatalf("scaling %v: comm-aware bound %v below ideal bound %v", s, lb1, lb0)
		}
		if lb1 > lb0 {
			tightened = true
		}
	}
	if !tightened {
		t.Fatal("comm-aware term never tightened any bound on a slow bus")
	}
}

// TestTMLowerBoundTightens: faster scalings must never raise the bound, and
// the all-nominal bound should be within reach of a good schedule (sanity
// that the bound is not vacuously loose).
func TestTMLowerBoundTightens(t *testing.T) {
	g := taskgraph.MPEG2()
	p := arch.MustNewPlatform(4, arch.ARM7Levels3())
	b := NewBounds(g, p, taskgraph.MPEG2Frames)
	slow, _ := b.TMLowerBound([]int{3, 3, 3, 3})
	mid, _ := b.TMLowerBound([]int{2, 2, 2, 2})
	fast, _ := b.TMLowerBound([]int{1, 1, 1, 1})
	if !(fast < mid && mid < slow) {
		t.Fatalf("bounds not monotone in speed: fast %v, mid %v, slow %v", fast, mid, slow)
	}
	// The all-slowest bound must prove the paper's deadline infeasible at
	// uniform s=3 (Fig. 5 walk rejects the first rows for exactly this
	// reason), i.e. the bound is strong enough to prune something real.
	if slow <= taskgraph.MPEG2Deadline {
		t.Logf("note: all-slowest bound %v does not exceed the MPEG-2 deadline %v", slow, taskgraph.MPEG2Deadline)
	}
}

func TestNominalPowerMatchesPlatform(t *testing.T) {
	g := taskgraph.Fig8()
	p := arch.MustNewPlatform(3, arch.ARM7Levels3())
	b := NewBounds(g, p, 1)
	for _, s := range [][]int{{3, 3, 3}, {2, 2, 1}, {1, 1, 1}} {
		got, err := b.NominalPower(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.DynamicPower(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("NominalPower(%v) = %v, platform says %v", s, got, want)
		}
	}
	if _, err := b.TMLowerBound([]int{1, 2}); err == nil {
		t.Error("bound accepted a wrong-length scaling vector")
	}
}
