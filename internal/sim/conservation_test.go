package sim

import (
	"math"
	"math/rand"
	"testing"

	"seadopt/internal/desim"
	"seadopt/internal/sched"
	"seadopt/internal/taskgraph"
)

// Property: the pipelined simulator conserves work exactly — for any
// iteration split, the summed busy time per core equals the single-shot
// busy time (cost sharding adds no cycles), and every instance runs once.
func TestWorkConservationAcrossIterations(t *testing.T) {
	g := taskgraph.MPEG2()
	p := plat(4)
	m := sched.Mapping{0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 3}
	scaling := []int{2, 1, 3, 2}

	ref, err := Run(g, p, m, scaling, Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, iters := range []int{2, 7, 19, 437} {
		r, err := Run(g, p, m, scaling, Config{Iterations: iters})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Events) != g.N()*iters {
			t.Fatalf("iters=%d: %d events, want %d", iters, len(r.Events), g.N()*iters)
		}
		for c := 0; c < 4; c++ {
			if d := math.Abs(r.coreBusyFs[c].Seconds() - ref.coreBusyFs[c].Seconds()); d > 1e-9 {
				t.Errorf("iters=%d core %d: busy %v != single-shot %v",
					iters, c, r.coreBusyFs[c].Seconds(), ref.coreBusyFs[c].Seconds())
			}
		}
		// Each (task, iteration) instance appears exactly once, on the
		// mapped core.
		seen := make(map[[2]int]bool)
		for _, ev := range r.Events {
			key := [2]int{int(ev.Task), ev.Iteration}
			if seen[key] {
				t.Fatalf("iters=%d: duplicate instance %v", iters, key)
			}
			seen[key] = true
			if ev.Core != m[ev.Task] {
				t.Fatalf("iters=%d: instance %v ran on core %d, mapped to %d",
					iters, key, ev.Core, m[ev.Task])
			}
			if ev.End <= ev.Start {
				t.Fatalf("iters=%d: empty execution window %v", iters, key)
			}
		}
	}
}

// Property: simulation is fully deterministic — two runs produce identical
// event streams.
func TestSimDeterminism(t *testing.T) {
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(30), 9)
	p := plat(3)
	rng := rand.New(rand.NewSource(2))
	m := sched.RandomMapping(rng, g.N(), 3)
	scaling := []int{1, 2, 3}
	a, err := Run(g, p, m, scaling, Config{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, p, m, scaling, Config{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.MakespanSec != b.MakespanSec || len(a.Events) != len(b.Events) {
		t.Fatal("nondeterministic simulation")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
}

// Property: per-iteration ordering — instance (t, k+1) never starts before
// instance (t, k) finishes (the pipeline's same-task serialization).
func TestIterationOrdering(t *testing.T) {
	g := taskgraph.Fig8()
	p := plat(3)
	m := sched.Mapping{0, 1, 0, 1, 2, 2}
	r, err := Run(g, p, m, []int{1, 2, 2}, Config{Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	end := make(map[[2]int]desim.Time)
	start := make(map[[2]int]desim.Time)
	for _, ev := range r.Events {
		key := [2]int{int(ev.Task), ev.Iteration}
		end[key] = ev.End
		start[key] = ev.Start
	}
	for t2 := 0; t2 < g.N(); t2++ {
		for k := 1; k < 5; k++ {
			if start[[2]int{t2, k}] < end[[2]int{t2, k - 1}] {
				t.Errorf("task %d: iteration %d starts before %d finishes", t2, k, k-1)
			}
		}
	}
}

// Cost sharding: iteration shares sum exactly to the task cost even when
// the split is uneven.
func TestCostShardingExact(t *testing.T) {
	g := taskgraph.Fig8() // costs are multiples of 600k cycles
	p := plat(1)
	m := make(sched.Mapping, g.N())
	const iters = 7 // does not divide 600k·{4,5,6} evenly in general
	r, err := Run(g, p, m, []int{1}, Config{Iterations: iters})
	if err != nil {
		t.Fatal(err)
	}
	period, err := desim.PeriodOf(p.MustCoreLevel(0, 1).FreqHz())
	if err != nil {
		t.Fatal(err)
	}
	perTask := make(map[int]desim.Time)
	for _, ev := range r.Events {
		perTask[int(ev.Task)] += ev.End - ev.Start
	}
	for t2 := 0; t2 < g.N(); t2++ {
		want := desim.Time(g.Task(taskgraph.TaskID(t2)).Cycles) * period
		if perTask[t2] != want {
			t.Errorf("task %d: summed execution %v, want %v", t2, perTask[t2], want)
		}
	}
}
