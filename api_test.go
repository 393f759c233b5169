package seadopt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestOptimizeDeterministicAcrossParallelism: the public contract of the
// exploration engine — the same Seed yields a byte-identical Design
// (scaling, mapping, Γ) at Parallelism 1, 4 and NumCPU.
func TestOptimizeDeterministicAcrossParallelism(t *testing.T) {
	sys, err := NewARM7System(MPEG2(), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	fingerprint := func(par int) string {
		d, err := sys.Optimize(OptimizeOptions{
			DeadlineSec:      MPEG2Deadline,
			StreamIterations: MPEG2Frames,
			SearchMoves:      250,
			Seed:             2010,
			Parallelism:      par,
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		return fmt.Sprintf("%v|%v|%x", d.Scaling, d.Mapping, d.Eval.Gamma)
	}
	ref := fingerprint(1)
	for _, par := range []int{4, runtime.NumCPU()} {
		if got := fingerprint(par); got != ref {
			t.Errorf("parallelism %d design %q != sequential %q", par, got, ref)
		}
	}
}

// TestOptimizeContextCancellation: OptimizeContext returns ctx.Err()
// promptly once cancelled.
func TestOptimizeContextCancellation(t *testing.T) {
	g, err := RandomGraph(DefaultRandomGraphConfig(60), 5)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewARM7System(g, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = sys.OptimizeContext(ctx, OptimizeOptions{
		DeadlineSec: RandomGraphDeadline(60),
		SearchMoves: 200000,
		Seed:        1,
		Parallelism: 2,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestOptimizeProgress: one in-order callback per scaling combination.
func TestOptimizeProgress(t *testing.T) {
	sys, err := NewARM7System(MPEG2(), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	_, err = sys.Optimize(OptimizeOptions{
		DeadlineSec:      MPEG2Deadline,
		StreamIterations: MPEG2Frames,
		SearchMoves:      60,
		Seed:             1,
		Parallelism:      4,
		Progress:         func(p ExploreProgress) { got = append(got, p.Index) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 15 {
		t.Fatalf("%d progress events, want 15", len(got))
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("progress out of order: %v", got)
		}
	}
}

// TestTrueZeroSER: a negative SER selects a genuine zero soft error rate
// (previously unexpressible behind the 0-means-default sentinel).
func TestTrueZeroSER(t *testing.T) {
	sys, err := NewARM7System(MPEG2(), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := Mapping{0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 3}
	scaling := []int{2, 2, 3, 2}
	ev, err := sys.Evaluate(m, scaling, OptimizeOptions{StreamIterations: 1, SER: -1})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Gamma != 0 {
		t.Errorf("SER<0 gave Γ = %v, want true zero", ev.Gamma)
	}
	evDefault, err := sys.Evaluate(m, scaling, OptimizeOptions{StreamIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if evDefault.Gamma <= 0 {
		t.Error("SER=0 no longer selects the default rate")
	}
	measured, expected, err := sys.InjectFaults(m, scaling, 1, -1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if measured != 0 || expected != 0 {
		t.Errorf("zero-rate injection measured %d (expected %v), want 0", measured, expected)
	}
}

func TestNewARM7System(t *testing.T) {
	sys, err := NewARM7System(Fig8(), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Platform.Cores() != 3 || sys.Platform.CoreNumLevels(0) != 3 {
		t.Errorf("platform shape wrong: %d cores, %d levels",
			sys.Platform.Cores(), sys.Platform.CoreNumLevels(0))
	}
	if _, err := NewARM7System(nil, 3, 3); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewARM7System(Fig8(), 3, 7); err == nil {
		t.Error("7-level table accepted")
	}
	if _, err := NewARM7System(Fig8(), 0, 3); err == nil {
		t.Error("0 cores accepted")
	}
	if _, err := NewSystem(nil, nil); err == nil {
		t.Error("NewSystem(nil,nil) accepted")
	}
}

func TestOptimizeFig8EndToEnd(t *testing.T) {
	sys, err := NewARM7System(Fig8(), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := OptimizeOptions{
		DeadlineSec: MPEG2Deadline, // generous for the tiny example
		SearchMoves: 300,
		Seed:        1,
	}
	design, err := sys.Optimize(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !design.Eval.MeetsDeadline {
		t.Fatal("optimized design misses a generous deadline")
	}
	sum := design.Summary()
	for _, want := range []string{"scaling", "core 0", "core 2", "Γ="} {
		if !strings.Contains(sum, want) {
			t.Errorf("Summary missing %q:\n%s", want, sum)
		}
	}
	if g := design.Gantt(60); !strings.Contains(g, "makespan") {
		t.Errorf("Gantt output wrong:\n%s", g)
	}
}

func TestOptimizeFig8WithItsOwnDeadline(t *testing.T) {
	// The worked example's 75 ms deadline with its 3-core platform.
	sys, err := NewARM7System(Fig8(), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	design, err := sys.Optimize(OptimizeOptions{
		DeadlineSec: 0.075,
		SearchMoves: 500,
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !design.Eval.MeetsDeadline {
		t.Fatalf("no feasible design for the Fig. 8 example: T_M=%v", design.Eval.TMSeconds)
	}
	// Under single-pass DAG semantics the example's critical path
	// (t1→t3→t4→t6 ≈ 72 ms at 200 MHz) pins the chain near nominal speed;
	// the margin is razor thin, so the design must sit close to the
	// deadline rather than waste slack.
	if design.Eval.TMSeconds > 0.075 {
		t.Errorf("T_M %v exceeds the 75 ms deadline", design.Eval.TMSeconds)
	}
	if design.Eval.TMSeconds < 0.030 {
		t.Errorf("T_M %v suspiciously far below the deadline for this graph", design.Eval.TMSeconds)
	}
}

func TestBaselineVsProposed(t *testing.T) {
	sys, err := NewARM7System(MPEG2(), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := OptimizeOptions{
		DeadlineSec:      MPEG2Deadline,
		StreamIterations: MPEG2Frames,
		SearchMoves:      400,
		Seed:             3,
	}
	proposed, err := sys.Optimize(opts)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := sys.OptimizeBaseline(MinimizeRegisterUsage, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !proposed.Eval.MeetsDeadline || !baseline.Eval.MeetsDeadline {
		t.Fatal("designs miss the deadline")
	}
	// The R-minimizing baseline must not beat the proposed design on R by
	// being beaten on it (i.e. baseline's defining metric holds).
	if baseline.Eval.TotalRegBits > proposed.Eval.TotalRegBits {
		t.Logf("note: baseline R %d > proposed R %d (possible at differing scalings)",
			baseline.Eval.TotalRegBits, proposed.Eval.TotalRegBits)
	}
}

func TestEvaluateSimulateInjectConsistency(t *testing.T) {
	sys, err := NewARM7System(MPEG2(), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := Mapping{0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 3}
	scaling := []int{2, 2, 3, 2}
	ev, err := sys.Evaluate(m, scaling, OptimizeOptions{StreamIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.Simulate(m, scaling, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.MakespanSec-ev.MakespanSec)/ev.MakespanSec > 1e-9 {
		t.Errorf("simulated makespan %v != analytic %v", r.MakespanSec, ev.MakespanSec)
	}
	measured, expected, err := sys.InjectFaults(m, scaling, 1, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(expected-ev.Gamma)/ev.Gamma > 0.01 {
		t.Errorf("injection expectation %v vs analytic Γ %v", expected, ev.Gamma)
	}
	if sigma := math.Sqrt(expected); math.Abs(float64(measured)-expected) > 6*sigma {
		t.Errorf("measured Γ %d improbably far from %v", measured, expected)
	}
}

// TestSimulateRefusesTimeBeyondRange: the cycle-level simulator keeps time
// in int64 femtoseconds (±9 223 s). A run that fits keeps its exact
// makespan; one that would pass the range is refused with an error naming
// it, where it used to deadlock (10 000 s) or wrap to a wrong makespan with
// no error (20 000 s read 1 553.26 s).
func TestSimulateRefusesTimeBeyondRange(t *testing.T) {
	for _, tc := range []struct {
		cycles   int64
		wantSecs float64 // list-schedule makespan
		fits     bool
	}{
		{9e11, 9000, true},
		{1e12, 10000, false},
		{2e12, 20000, false},
	} {
		b := NewGraphBuilder("long", NewRegisterInventory())
		a := b.AddTask("a", tc.cycles)
		b.AddEdge(a, b.AddTask("b", 1000), 10)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewARM7System(g, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		scaling := []int{2, 2}
		d, err := sys.MapAtScaling(scaling, OptimizeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := d.Eval.MakespanSec; math.Abs(got-tc.wantSecs) > 1e-3 {
			t.Fatalf("%d cycles: list schedule %v s, want %v s", tc.cycles, got, tc.wantSecs)
		}
		r, err := sys.Simulate(d.Mapping, scaling, 1)
		if !tc.fits {
			if err == nil || !strings.Contains(err.Error(), "±9223 s range") {
				t.Errorf("%d cycles: Simulate = %v, %v; want an error naming the ±9223 s range", tc.cycles, r, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%d cycles: %v", tc.cycles, err)
		}
		if math.Abs(r.MakespanSec-d.Eval.MakespanSec)/d.Eval.MakespanSec > 1e-9 {
			t.Errorf("%d cycles: simulated makespan %v s, list schedule %v s", tc.cycles, r.MakespanSec, d.Eval.MakespanSec)
		}
	}
}

func TestScalingCombinations(t *testing.T) {
	sys, err := NewARM7System(MPEG2(), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	combos, err := sys.ScalingCombinations()
	if err != nil {
		t.Fatal(err)
	}
	if len(combos) != 15 {
		t.Errorf("got %d combinations, want 15 (Fig. 5b)", len(combos))
	}
	next, ok := NextScaling([]int{3, 3, 3, 3})
	if !ok || next[3] != 2 {
		t.Errorf("NextScaling([3 3 3 3]) = %v,%v", next, ok)
	}
}

func TestRandomGraphFacade(t *testing.T) {
	g, err := RandomGraph(DefaultRandomGraphConfig(20), 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 20 {
		t.Errorf("random graph has %d tasks", g.N())
	}
	if d := RandomGraphDeadline(20); d != 10 {
		t.Errorf("deadline = %v, want 10 s", d)
	}
}

func TestStatsAndCustomPlatform(t *testing.T) {
	sys, err := NewARM7System(MPEG2(), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.Tasks != 11 || st.Depth < 9 || st.Parallelism <= 0 {
		t.Errorf("stats off: %+v", st)
	}
	p, err := NewCustomPlatform(2, 180, 90)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cores() != 2 || p.CoreNumLevels(0) != 2 {
		t.Errorf("custom platform shape wrong")
	}
	if _, err := NewCustomPlatform(2, 90, 180); err == nil {
		t.Error("increasing frequencies accepted")
	}
	// The custom platform works end to end.
	sys2, err := NewSystem(Fig8(), p)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sys2.Optimize(OptimizeOptions{SearchMoves: 200, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d.Eval.Gamma <= 0 {
		t.Error("degenerate design on custom platform")
	}
}

// TestShardedOptimizeFillsStats: the sharded entry points honour
// OptimizeOptions.Stats with the coordinator's telemetry, whether the run
// shards (exhaustive, Pareto) or resolves on the coordinator (a seeded
// ranked walk), and the Design or frontier is the single-node one.
func TestShardedOptimizeFillsStats(t *testing.T) {
	sys, err := NewARM7System(MPEG2(), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, opts := range []OptimizeOptions{
		{DeadlineSec: MPEG2Deadline, StreamIterations: MPEG2Frames, SearchMoves: 100, Seed: 1, Ranked: true},
		{DeadlineSec: MPEG2Deadline, StreamIterations: MPEG2Frames, SearchMoves: 100, Seed: 1, Strategy: StrategyExhaustive},
	} {
		want, err := sys.OptimizeContext(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		var st ExploreStats
		opts.Stats = &st
		got, err := sys.OptimizeShardedContext(ctx, opts, make([]ShardRunner, 2))
		if err != nil {
			t.Fatal(err)
		}
		if got.Summary() != want.Summary() {
			t.Errorf("strategy %q ranked=%v: sharded design differs from single-node", opts.Strategy, opts.Ranked)
		}
		if st.Combos.Total != 15 {
			t.Errorf("strategy %q ranked=%v: stats counted %d combinations, want 15", opts.Strategy, opts.Ranked, st.Combos.Total)
		}
	}
	var st ExploreStats
	opts := OptimizeOptions{DeadlineSec: MPEG2Deadline, StreamIterations: MPEG2Frames, SearchMoves: 100, Seed: 1, Stats: &st}
	if _, err := sys.OptimizeShardedParetoContext(ctx, opts, make([]ShardRunner, 2)); err != nil {
		t.Fatal(err)
	}
	if st.Combos.Total != 15 {
		t.Errorf("pareto: stats counted %d combinations, want 15", st.Combos.Total)
	}
}
