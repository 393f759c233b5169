package mapping

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/taskgraph"
)

// flagshipPlat builds a flagship-shaped heterogeneous platform: two-level
// efficiency cores followed by perf four-level performance cores.
func flagshipPlat(t *testing.T, cores, perf int, opts ...arch.Option) *arch.Platform {
	t.Helper()
	types := []arch.ProcType{
		{Name: "eff", Levels: arch.ARM7Levels2()},
		{Name: "perf", Levels: arch.ARM7Levels4()},
	}
	coreTypes := make([]int, cores)
	for i := cores - perf; i < cores; i++ {
		coreTypes[i] = 1
	}
	p, err := arch.NewHeterogeneousPlatform(types, coreTypes, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// plat64 is the flagship platform: 56 two-level efficiency cores plus 8
// four-level performance cores (9405 combinations).
func plat64(t *testing.T) *arch.Platform { return flagshipPlat(t, 64, 8) }

// graph64 is a reduced-budget stand-in for the flagship benchmark workload:
// the same §V generator and 64-core-wide layers, fewer tasks so the
// exhaustive reference stays test-sized.
func graph64(t *testing.T) (*taskgraph.Graph, float64) {
	t.Helper()
	cfg := taskgraph.DefaultRandomConfig(40)
	cfg.MaxWidth = 16
	return taskgraph.MustRandom(cfg, 11), taskgraph.RandomDeadline(40) / 5
}

// TestRankedMatchesExhaustive is the acceptance property of the ranked
// incumbent-seeding pass: on the paper workloads, a §V random graph and the
// 64-core heterogeneous platform, StrategyBranchAndBound with Ranked set
// returns a byte-identical best Design to StrategyExhaustive (and hence to
// unseeded branch-and-bound) at Parallelism 1, 4 and GOMAXPROCS — while
// skipping at least as many combinations as it evaluates the moment the
// space is prunable. -short skips the 64-core case, far too slow to repeat
// under the race detector.
func TestRankedMatchesExhaustive(t *testing.T) {
	g64, dl64 := graph64(t)
	workloads := []struct {
		name     string
		g        *taskgraph.Graph
		p        *arch.Platform
		deadline float64
		iters    int
		moves    int
	}{
		{"mpeg2", taskgraph.MPEG2(), plat(4), taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames, 150},
		{"fig8", taskgraph.Fig8(), heteroPlat(t, 1, 1), taskgraph.Fig8Deadline, 1, 80},
		{"random30", taskgraph.MustRandom(taskgraph.DefaultRandomConfig(30), 8), plat(3), taskgraph.RandomDeadline(30) * 0.2, 1, 150},
		{"hetero64", g64, plat64(t), dl64, 1, 12},
	}
	parallelisms := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, wl := range workloads {
		if testing.Short() && wl.name == "hetero64" {
			continue
		}
		base := cfg(wl.deadline, wl.iters)
		base.SearchMoves = wl.moves

		exh := base
		exh.Strategy = StrategyExhaustive
		wantBest, err := Explore(wl.g, wl.p, SEAMapper(exh), exh)
		if err != nil {
			t.Fatalf("%s exhaustive: %v", wl.name, err)
		}
		want := designFingerprint(wantBest)

		for _, par := range parallelisms {
			ranked := base
			ranked.Strategy = StrategyBranchAndBound
			ranked.Ranked = true
			ranked.Parallelism = par
			var evaluated, avoided int
			ranked.Progress = func(pr Progress) {
				if pr.Pruned || pr.Skipped {
					avoided++
				} else {
					evaluated++
				}
			}
			gotBest, err := Explore(wl.g, wl.p, SEAMapper(ranked), ranked)
			if err != nil {
				t.Fatalf("%s ranked par=%d: %v", wl.name, par, err)
			}
			if got := designFingerprint(gotBest); got != want {
				t.Errorf("%s par=%d: designs diverged:\n  exhaustive: %s\n  ranked bnb: %s",
					wl.name, par, want, got)
			}
			if avoided == 0 {
				t.Errorf("%s par=%d: ranked branch-and-bound avoided nothing (evaluated %d)",
					wl.name, par, evaluated)
			}
		}
	}
}

// TestRankedSkipsAtLeastAsMuch: seeding the incumbent from the ranked pass
// can only lower the dominance threshold earlier, so the seeded run must
// map no more combinations than the unseeded one. It runs on the 64-core
// platform, so -short skips it.
func TestRankedSkipsAtLeastAsMuch(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core workload")
	}
	g, dl := graph64(t)
	p := plat64(t)
	base := cfg(dl, 1)
	base.SearchMoves = 12
	base.Strategy = StrategyBranchAndBound

	count := func(ranked bool) (evaluated, avoided int) {
		c := base
		c.Ranked = ranked
		c.Progress = func(pr Progress) {
			if pr.Pruned || pr.Skipped {
				avoided++
			} else {
				evaluated++
			}
		}
		if _, err := Explore(g, p, SEAMapper(c), c); err != nil {
			t.Fatal(err)
		}
		return
	}
	plainEval, plainAvoid := count(false)
	rankedEval, rankedAvoid := count(true)
	t.Logf("unseeded: %d mapped / %d avoided; ranked: %d mapped / %d avoided",
		plainEval, plainAvoid, rankedEval, rankedAvoid)
	if rankedEval > plainEval {
		t.Errorf("ranked seeding mapped %d combinations, unseeded only %d", rankedEval, plainEval)
	}
	if rankedEval+rankedAvoid != plainEval+plainAvoid {
		t.Errorf("event counts diverged: ranked %d, unseeded %d",
			rankedEval+rankedAvoid, plainEval+plainAvoid)
	}
}

// rankedWorkload16 is a 20-task §V graph on the 16-core flagship shape (14
// two-level plus 2 four-level cores, 150 combinations), ideal or behind the
// XY mesh, with the deadline at 1.2× the makespan the mapper reaches with
// every core at its fastest level. The graph seeds put the ranked walk's
// first probe-feasible combination after at least four infeasible probes.
func rankedWorkload16(t *testing.T, mesh bool) (*taskgraph.Graph, *arch.Platform, Config) {
	t.Helper()
	seed := int64(11)
	var opts []arch.Option
	if mesh {
		seed = 9
		opts = append(opts, arch.WithInterconnect(testMeshFabric))
	}
	p := flagshipPlat(t, 16, 2, opts...)
	rc := taskgraph.DefaultRandomConfig(20)
	rc.MaxWidth = 16
	g := taskgraph.MustRandom(rc, seed)
	c := cfg(0, 1)
	c.SearchMoves = 60
	_, fastest, err := MapOnce(context.Background(), g, p, p.MaxPowerScaling(), SEAMapper(c), c)
	if err != nil {
		t.Fatal(err)
	}
	c.DeadlineSec = fastest.TMSeconds * 1.2
	c.Ranked = true
	return g, p, c
}

// TestRankedParallelMatchesSequential is the sequential oracle of the
// ranked pass's claim stream. On the 16-core flagship shape, ideal and
// behind an XY mesh, the Design, the whole Progress stream (the
// Pruned/Skipped split included) and the seeded nominal power (the index −1
// bound event) are identical at Parallelism 1, 2, 4 and GOMAXPROCS. The
// serial walk's first feasible probe is its k-th, after at least four
// infeasible ones, so parallel workers hold claims on both sides of it. A
// parallel pass probes those k candidates plus the surplus claimed before
// the answer's verdict was recorded: at least k rank probes, each a probe
// cache miss the serial pass does not make, and none claimed (its span's
// start) after the answer's verdict was recorded (that span's end).
func TestRankedParallelMatchesSequential(t *testing.T) {
	type run struct {
		design   string
		progress []string
		seeded   string       // nominal power of the index −1 bound event
		rank     []WorkerSpan // the ranked pass's probes, row by row
		misses   int64
	}
	for _, mesh := range []bool{false, true} {
		g, p, base := rankedWorkload16(t, mesh)
		runAt := func(par int) run {
			c := base
			c.Parallelism = par
			tel := NewTelemetry()
			c.Telemetry = tel
			var r run
			c.Progress = func(pr Progress) { r.progress = append(r.progress, progressFingerprint(pr)) }
			best, err := Explore(g, p, SEAMapper(c), c)
			if err != nil {
				t.Fatalf("mesh=%v par=%d: %v", mesh, par, err)
			}
			r.design = designFingerprint(best)
			st := tel.Stats()
			for _, ev := range st.Events {
				if ev.Kind == EventBound && ev.Index == -1 {
					r.seeded = fmt.Sprintf("%x", ev.NominalW)
				}
			}
			for _, ws := range st.Workers {
				for _, sp := range ws.Spans {
					if sp.Kind == "rank" {
						r.rank = append(r.rank, sp)
					}
				}
			}
			r.misses = st.ProbeCache.Misses
			return r
		}

		seq := runAt(1)
		// The serial walk stops at its first feasible probe, the k-th: the
		// answer.
		k := len(seq.rank)
		if seq.seeded == "" {
			t.Fatalf("mesh=%v: the ranked pass seeded nothing", mesh)
		}
		if k < 5 {
			t.Fatalf("mesh=%v: the first feasible probe is the %d-th; the workload must put it after at least 4 infeasible ones", mesh, k)
		}
		answer := seq.rank[k-1].Combination
		for _, par := range []int{2, 4, runtime.GOMAXPROCS(0)} {
			got := runAt(par)
			if got.design != seq.design {
				t.Errorf("mesh=%v par=%d: design diverged:\n  serial: %s\n  stream: %s", mesh, par, seq.design, got.design)
			}
			if got.seeded != seq.seeded {
				t.Errorf("mesh=%v par=%d: seeded nominal %s, serial %s", mesh, par, got.seeded, seq.seeded)
			}
			if len(got.progress) != len(seq.progress) {
				t.Fatalf("mesh=%v par=%d: %d progress events, serial %d", mesh, par, len(got.progress), len(seq.progress))
			}
			for i := range seq.progress {
				if got.progress[i] != seq.progress[i] {
					t.Errorf("mesh=%v par=%d: progress[%d] diverged:\n  serial: %s\n  stream: %s",
						mesh, par, i, seq.progress[i], got.progress[i])
					break
				}
			}
			probes := len(got.rank)
			if probes < k {
				t.Errorf("mesh=%v par=%d: %d seed probes, fewer than the serial walk's %d", mesh, par, probes, k)
			}
			if surplus := int64(probes - k); got.misses-seq.misses != surplus {
				t.Errorf("mesh=%v par=%d: %d probe cache misses, serial %d: want the %d surplus probes more",
					mesh, par, got.misses, seq.misses, surplus)
			}
			var recorded []int64 // the answer's record time; probed exactly once
			for _, sp := range got.rank {
				if sp.Combination == answer {
					recorded = append(recorded, sp.EndNanos)
				}
			}
			if len(recorded) != 1 {
				t.Fatalf("mesh=%v par=%d: the answer, combination %d, was probed %d times, want once", mesh, par, answer, len(recorded))
			}
			for _, sp := range got.rank {
				if sp.StartNanos > recorded[0] {
					t.Errorf("mesh=%v par=%d: combination %d claimed at %d ns, after the answer's verdict was recorded at %d ns",
						mesh, par, sp.Combination, sp.StartNanos, recorded[0])
				}
			}
		}
	}
}

// TestRankedRequiresBranchAndBound: the option is a BnB refinement; other
// strategies must reject it loudly rather than silently ignore it.
func TestRankedRequiresBranchAndBound(t *testing.T) {
	for _, s := range []Strategy{StrategyExhaustive, StrategySampled} {
		c := cfg(1, 1)
		c.Strategy = s
		c.Ranked = true
		if c.Validate() == nil {
			t.Errorf("Ranked accepted with strategy %q", s)
		}
	}
	ok := cfg(1, 1)
	ok.Ranked = true // default strategy is branch-and-bound
	if err := ok.Validate(); err != nil {
		t.Errorf("Ranked rejected with the default strategy: %v", err)
	}
}
