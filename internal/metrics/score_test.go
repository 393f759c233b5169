package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/sched"
	"seadopt/internal/taskgraph"
)

// scoreFabrics are the fabrics the score oracles run on: ideal links, a
// shared bus and a contended mesh, with links slow enough that §V
// transfers (1e8–1e9 bits) rival task durations.
var scoreFabrics = []*arch.Interconnect{
	nil,
	{Topology: arch.TopologyBus, BandwidthBps: 4e9},
	{Topology: arch.TopologyMesh, BandwidthBps: 4e9, HopLatencySec: 1e-4},
}

// scorePlatform builds cores cores on scoreFabrics[fabric]: homogeneous
// ARM7Levels3 when perf is nil, otherwise core c on ARM7Levels4 when
// perf(c) and on ARM7Levels2 when not.
func scorePlatform(t testing.TB, cores, fabric int, perf func(c int) bool) *arch.Platform {
	t.Helper()
	var opts []arch.Option
	if icn := scoreFabrics[fabric]; icn != nil {
		opts = append(opts, arch.WithInterconnect(*icn))
	}
	var (
		p   *arch.Platform
		err error
	)
	if perf == nil {
		p, err = arch.NewPlatform(cores, arch.ARM7Levels3(), opts...)
	} else {
		types := []arch.ProcType{{Name: "eff", Levels: arch.ARM7Levels2()}, {Name: "perf", Levels: arch.ARM7Levels4()}}
		coreTypes := make([]int, cores)
		for c := range coreTypes {
			if perf(c) {
				coreTypes[c] = 1
			}
		}
		p, err = arch.NewHeterogeneousPlatform(types, coreTypes, opts...)
	}
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkScore holds e.Score(m) to ref.Evaluate(m), both bound to the same
// scaling and deadline: T_M, R, Γ and the verdict bit for bit, and one
// Evaluation and no Makespan counted. It returns the score.
func checkScore(t *testing.T, where string, e, ref *Evaluator, m sched.Mapping) Score {
	t.Helper()
	want, err := ref.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	sc, err := e.Score(m)
	if err != nil {
		t.Fatal(err)
	}
	if d := e.Stats().Sub(before); d.Evaluations != 1 || d.Makespans != 0 {
		t.Fatalf("%s: a Score counted %+v", where, d)
	}
	bits := math.Float64bits
	if bits(sc.TMSeconds) != bits(want.TMSeconds) || sc.TotalRegBits != want.TotalRegBits ||
		bits(sc.Gamma) != bits(want.Gamma) || sc.MeetsDeadline != want.MeetsDeadline {
		t.Fatalf("%s: score %+v != evaluation (T_M %v, R %d, Γ %v, meets %v)", where, sc,
			want.TMSeconds, want.TotalRegBits, want.Gamma, want.MeetsDeadline)
	}
	return sc
}

// TestScoreMatchesEvaluate holds the score stage to the full evaluation
// bit for bit on MPEG-2, Fig. 8 and a 40-task §V graph (its inventory
// spans several mask words), on homogeneous and heterogeneous platforms
// behind each fabric, at one and at three iterations, with no deadline and
// with a tight one, over random scalings and mappings. It also requires a
// Score to invalidate EvaluateDelta.
func TestScoreMatchesEvaluate(t *testing.T) {
	graphs := []*taskgraph.Graph{
		taskgraph.MPEG2(),
		taskgraph.Fig8(),
		taskgraph.MustRandom(taskgraph.DefaultRandomConfig(40), 7),
	}
	rng := rand.New(rand.NewSource(2024))
	var feasible, infeasible int
	for _, g := range graphs {
		for fabric := range scoreFabrics {
			for _, hetero := range []bool{false, true} {
				var perf func(int) bool
				if hetero {
					perf = func(c int) bool { return c%3 == 0 }
				}
				p := scorePlatform(t, 5, fabric, perf)
				for _, iters := range []int{1, 3} {
					ref, err := NewEvaluator(g, p, ser(), Options{Iterations: iters})
					if err != nil {
						t.Fatal(err)
					}
					e, err := NewEvaluator(g, p, ser(), Options{Iterations: iters})
					if err != nil {
						t.Fatal(err)
					}
					// The tight deadline is the T_M of a round-robin
					// mapping at the fastest scaling.
					if err := ref.Bind(p.MaxPowerScaling()); err != nil {
						t.Fatal(err)
					}
					rr, err := ref.Evaluate(sched.RoundRobin(g.N(), p.Cores()))
					if err != nil {
						t.Fatal(err)
					}
					for _, d := range []float64{0, rr.TMSeconds} {
						ref.SetDeadline(d)
						e.SetDeadline(d)
						for s := 0; s < 3; s++ {
							scaling := randScaling(rng, p)
							if err := ref.Bind(scaling); err != nil {
								t.Fatal(err)
							}
							if err := e.Bind(scaling); err != nil {
								t.Fatal(err)
							}
							for trial := 0; trial < 12; trial++ {
								m := sched.RandomMapping(rng, g.N(), p.Cores())
								where := fmt.Sprintf("%s fabric %d hetero %v iterations %d deadline %v scaling %v mapping %v",
									g.Name(), fabric, hetero, iters, d, scaling, m)
								if checkScore(t, where, e, ref, m).MeetsDeadline {
									feasible++
								} else {
									infeasible++
								}
							}
						}
					}
				}
			}
		}
	}

	if feasible == 0 || infeasible == 0 {
		t.Fatalf("scores: %d feasible, %d infeasible; the legs no longer reach both verdicts", feasible, infeasible)
	}

	// Score invalidates the delta path until the next full Evaluate.
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
	if _, err := e.Score(m); err != nil {
		t.Fatal(err)
	}
	if _, err := e.EvaluateDelta(s, []int{2, 2, 2, 3}); err == nil {
		t.Fatal("EvaluateDelta after Score did not error")
	}
}

// FuzzScoreMatchesEvaluate runs checkScore on fuzzed problems: a §V graph
// of 2–41 tasks, 1–8 cores on one of scoreFabrics, homogeneous or
// heterogeneous, one or several iterations, a scaling, a mapping and a
// deadline (none, or a fraction of the mapping's T_M). Missing bytes read
// as zero.
func FuzzScoreMatchesEvaluate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{38, 7, 0, 15, 2, 1, 3, 1, 2, 0, 2, 200, 3, 128})
	f.Add([]byte("\x0a\x0b\x05\x01\x01\x02\x01\x00\x02\x01\x03\x04\x01\x00\x01\x02\x03\x04\x00\x01\x02\x03\x02\x90\x03\x40"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 2 + next()%40
		seed := int64(next())<<8 | int64(next())
		g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(n), seed)
		cores := 1 + next()%8
		kind := next()
		var perf func(int) bool
		if kind/len(scoreFabrics)%2 == 1 {
			types := make([]bool, cores)
			for c := range types {
				types[c] = next()%2 == 1
			}
			perf = func(c int) bool { return types[c] }
		}
		p := scorePlatform(t, cores, kind%len(scoreFabrics), perf)
		iters := 1
		if it := next() % 4; it > 1 {
			iters = it
		}
		scaling := make([]int, cores)
		for c := range scaling {
			scaling[c] = 1 + next()%p.CoreNumLevels(c)
		}
		m := make(sched.Mapping, g.N())
		for i := range m {
			m[i] = next() % cores
		}
		ref, err := NewEvaluator(g, p, ser(), Options{Iterations: iters})
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEvaluator(g, p, ser(), Options{Iterations: iters})
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Bind(scaling); err != nil {
			t.Fatal(err)
		}
		if err := e.Bind(scaling); err != nil {
			t.Fatal(err)
		}
		want, err := ref.Evaluate(m)
		if err != nil {
			t.Fatal(err)
		}
		tm := want.TMSeconds
		var d float64
		if b := next(); b%2 == 1 {
			d = tm * (0.5 + float64(b)/256)
		}
		ref.SetDeadline(d)
		e.SetDeadline(d)
		checkScore(t, fmt.Sprintf("%d-task graph %d, %d cores, kind %d, iterations %d, scaling %v, mapping %v, deadline %v",
			n, seed, cores, kind, iters, scaling, m, d), e, ref, m)
	})
}
