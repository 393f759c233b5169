package search

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"seadopt/internal/sched"
)

// quadratic is a deterministic toy objective: cost = Σ (m[i] - target[i])².
func quadratic(target sched.Mapping) func(sched.Mapping) (Cost, error) {
	return func(m sched.Mapping) (Cost, error) {
		var c float64
		for i := range m {
			d := float64(m[i] - target[i])
			c += d * d
		}
		return Cost{Value: c, Feasible: true}, nil
	}
}

func TestAnnealValidation(t *testing.T) {
	ok := Problem{
		Cores:    2,
		Initial:  sched.Mapping{0, 1},
		Moves:    10,
		Evaluate: quadratic(sched.Mapping{0, 1}),
	}
	if _, err := Anneal(ok); err != nil {
		t.Fatal(err)
	}
	bad := ok
	bad.Moves = 0
	if _, err := Anneal(bad); err == nil {
		t.Error("zero moves accepted")
	}
	bad = ok
	bad.Cores = 0
	if _, err := Anneal(bad); err == nil {
		t.Error("zero cores accepted")
	}
	bad = ok
	bad.Evaluate = nil
	if _, err := Anneal(bad); err == nil {
		t.Error("nil objective accepted")
	}
	bad = ok
	bad.Initial = nil
	if _, err := Anneal(bad); err == nil {
		t.Error("empty initial accepted")
	}
}

func TestAnnealFindsTarget(t *testing.T) {
	// 8 tasks on 3 cores; target uses all cores so it is reachable under
	// the every-core-used invariant.
	target := sched.Mapping{0, 1, 2, 0, 1, 2, 0, 1}
	res, err := Anneal(Problem{
		Cores:    3,
		Initial:  sched.Mapping{2, 2, 2, 1, 1, 1, 0, 0},
		Moves:    4000,
		Seed:     9,
		Evaluate: quadratic(target),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost.Value != 0 {
		t.Errorf("did not reach the optimum: cost %v, mapping %v", res.BestCost.Value, res.Best)
	}
	if !res.BestCost.Feasible {
		t.Error("feasible objective reported infeasible")
	}
	if res.Improved == 0 {
		t.Error("no incumbent improvements recorded")
	}
}

func TestAnnealDeterministic(t *testing.T) {
	p := Problem{
		Cores:    3,
		Initial:  sched.Mapping{0, 1, 2, 0, 1, 2},
		Moves:    500,
		Seed:     77,
		Evaluate: quadratic(sched.Mapping{2, 1, 0, 2, 1, 0}),
	}
	a, err := Anneal(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Anneal(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestCost != b.BestCost {
		t.Error("same problem produced different best costs")
	}
	for i := range a.Best {
		if a.Best[i] != b.Best[i] {
			t.Fatal("same problem produced different mappings")
		}
	}
}

func TestAnnealFeasibilityDominates(t *testing.T) {
	// Feasible iff task 0 on core 1. Infeasible states have tiny cost, the
	// feasible region larger cost: the incumbent must still be feasible.
	evaluate := func(m sched.Mapping) (Cost, error) {
		if m[0] == 1 {
			return Cost{Value: 100, Feasible: true}, nil
		}
		return Cost{Value: 1, Feasible: false}, nil
	}
	res, err := Anneal(Problem{
		Cores:    2,
		Initial:  sched.Mapping{0, 1, 0, 1},
		Moves:    800,
		Seed:     3,
		Evaluate: evaluate,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.BestCost.Feasible {
		t.Error("incumbent is infeasible although feasible states exist")
	}
}

func TestAnnealAltInitials(t *testing.T) {
	// The alternate start sits at the optimum; with two restarts the second
	// run starts there and the incumbent must be optimal.
	target := sched.Mapping{0, 1, 0, 1}
	res, err := Anneal(Problem{
		Cores:       2,
		Initial:     sched.Mapping{1, 0, 1, 0},
		AltInitials: []sched.Mapping{target},
		Moves:       8, // far too few to search; only seeding can win
		Seed:        5,
		Evaluate:    quadratic(target),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost.Value != 0 {
		t.Errorf("alt initial not used: best cost %v", res.BestCost.Value)
	}
}

func TestAnnealErrorPropagates(t *testing.T) {
	calls := 0
	_, err := Anneal(Problem{
		Cores:   2,
		Initial: sched.Mapping{0, 1},
		Moves:   100,
		Evaluate: func(m sched.Mapping) (Cost, error) {
			calls++
			if calls > 3 {
				return Cost{}, errBoom
			}
			return Cost{Value: 1, Feasible: true}, nil
		},
	})
	if err == nil {
		t.Error("objective error swallowed")
	}
}

var errBoom = &boomError{}

type boomError struct{}

func (*boomError) Error() string { return "boom" }

func TestNeighborInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(20)
		cores := 2 + rng.Intn(5)
		m := make(sched.Mapping, n)
		for i := range m {
			m[i] = i % cores
		}
		// Shuffle while preserving the all-cores-used property when n>=cores.
		rng.Shuffle(n, func(i, j int) { m[i], m[j] = m[j], m[i] })
		nb := NeighborInto(rng, make(sched.Mapping, n), m, cores, make([]int, cores))
		if len(nb) != n {
			t.Fatal("neighbor changed length")
		}
		diff := 0
		for i := range m {
			if nb[i] != m[i] {
				diff++
			}
			if nb[i] < 0 || nb[i] >= cores {
				t.Fatalf("neighbor out of range: %v", nb)
			}
		}
		if diff > 2 {
			t.Fatalf("neighbor changed %d tasks, max 2 allowed", diff)
		}
		if n >= cores && m.UsesAllCores(cores) && !nb.UsesAllCores(cores) {
			t.Fatalf("neighbor emptied a core: %v -> %v", m, nb)
		}
	}
}

func TestNeighborDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := sched.Mapping{0}
	nb := NeighborInto(rng, make(sched.Mapping, 1), m, 1, make([]int, 1))
	if len(nb) != 1 || nb[0] != 0 {
		t.Errorf("degenerate neighbor = %v", nb)
	}
}

// Property: the incumbent cost never exceeds the initial cost.
func TestAnnealMonotoneIncumbent(t *testing.T) {
	f := func(seed int64, nRaw, cRaw uint8) bool {
		n := 2 + int(nRaw)%12
		cores := 2 + int(cRaw)%3
		target := make(sched.Mapping, n)
		initial := make(sched.Mapping, n)
		for i := range target {
			target[i] = i % cores
			initial[i] = (i + 1) % cores
		}
		eval := quadratic(target)
		res, err := Anneal(Problem{
			Cores: cores, Initial: initial, Moves: 200, Seed: seed, Evaluate: eval,
		})
		if err != nil {
			return false
		}
		init, _ := eval(initial)
		return res.BestCost.Value <= init.Value+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCostDominates(t *testing.T) {
	cases := []struct {
		a, b Cost
		want bool
	}{
		{Cost{1, true}, Cost{2, true}, true},
		{Cost{2, true}, Cost{1, true}, false},
		{Cost{math.Inf(1), true}, Cost{0, false}, true},
		{Cost{0, false}, Cost{math.Inf(1), true}, false},
		{Cost{1, false}, Cost{2, false}, true},
	}
	for i, c := range cases {
		if got := c.a.dominates(c.b); got != c.want {
			t.Errorf("case %d: dominates = %v, want %v", i, got, c.want)
		}
	}
}
