package mapping

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seadopt/internal/arch"
	"seadopt/internal/metrics"
	"seadopt/internal/sched"
	"seadopt/internal/taskgraph"
)

// designFingerprint renders everything that identifies a design byte-for-
// byte: scaling, mapping and the Γ/power/T_M of its evaluation. Pruned and
// skipped combinations have no design and fingerprint as "nil".
func designFingerprint(d *Design) string {
	if d == nil {
		return "nil"
	}
	return fmt.Sprintf("s=%v m=%v gamma=%x power=%x tm=%x",
		d.Scaling, d.Mapping, d.Eval.Gamma, d.Eval.PowerW, d.Eval.TMSeconds)
}

// designRecord is what recordDesigns fills: each visit position's Design
// (nil when pruned or skipped) at its Index, and how many Progress events
// each position received.
type designRecord struct {
	per        []*Design
	deliveries []int
}

// recordDesigns chains a recorder onto c.Progress. Set any other Progress
// callback first.
func recordDesigns(c *Config) *designRecord {
	r := &designRecord{}
	prev := c.Progress
	c.Progress = func(ev Progress) {
		if prev != nil {
			prev(ev)
		}
		if r.per == nil {
			r.per = make([]*Design, ev.Total)
			r.deliveries = make([]int, ev.Total)
		}
		r.per[ev.Index] = ev.Design
		r.deliveries[ev.Index]++
	}
	return r
}

// designs returns the recorded per-position designs, one per visit
// position, after checking that every position was reported exactly once.
func (r *designRecord) designs(t *testing.T) []*Design {
	t.Helper()
	for i, n := range r.deliveries {
		if n != 1 {
			t.Errorf("visit position %d of %d reported %d times, want once", i, len(r.deliveries), n)
		}
	}
	return r.per
}

// TestExploreDeterministicAcrossParallelism is the engine's core contract:
// the same seed yields a byte-identical best design and per-combination
// designs at parallelism 1, 4 and NumCPU.
func TestExploreDeterministicAcrossParallelism(t *testing.T) {
	g := taskgraph.MPEG2()
	p := plat(4)
	base := cfg(taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames)
	base.SearchMoves = 300

	type run struct {
		best string
		per  []string
	}
	runAt := func(par int) run {
		c := base
		c.Parallelism = par
		per := recordDesigns(&c)
		best, err := Explore(g, p, SEAMapper(c), c)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		r := run{best: designFingerprint(best)}
		for _, d := range per.designs(t) {
			r.per = append(r.per, designFingerprint(d))
		}
		return r
	}

	ref := runAt(1)
	for _, par := range []int{4, runtime.NumCPU()} {
		got := runAt(par)
		if got.best != ref.best {
			t.Errorf("parallelism %d: best design diverged:\n  seq: %s\n  par: %s",
				par, ref.best, got.best)
		}
		if len(got.per) != len(ref.per) {
			t.Fatalf("parallelism %d: %d combination designs, want %d",
				par, len(got.per), len(ref.per))
		}
		for i := range ref.per {
			if got.per[i] != ref.per[i] {
				t.Errorf("parallelism %d: design %d diverged:\n  seq: %s\n  par: %s",
					par, i, ref.per[i], got.per[i])
			}
		}
	}
}

// TestSequentialWorkDeterministic: at Parallelism 1 every position folds
// before the next is claimed, so the stream's work, not only its result, is
// a pure function of the configuration. Under plain branch-and-bound on
// MPEG-2 the mapper runs for exactly the combinations the fold evaluates,
// and on the 16-core §V workload of BenchmarkExplore16CoreBnB (40 tasks,
// graph seed 7, half the default deadline) two runs on fresh Reuse bundles
// report identical verdict, evaluator and probe-cache counters.
func TestSequentialWorkDeterministic(t *testing.T) {
	statsOf := func(g *taskgraph.Graph, p *arch.Platform, c Config) *ExploreStats {
		c.Parallelism = 1
		c.SearchMoves = 200
		c.Reuse = NewReuse()
		c.Telemetry = NewTelemetry()
		if _, err := Explore(g, p, SEAMapper(c), c); err != nil {
			t.Fatal(err)
		}
		return c.Telemetry.Stats()
	}

	st := statsOf(taskgraph.MPEG2(), plat(4), cfg(taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames))
	if st.Combos.MapperRuns != st.Combos.Evaluated {
		t.Errorf("MPEG-2: %d mapper runs for %d evaluated combinations", st.Combos.MapperRuns, st.Combos.Evaluated)
	}

	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(40), 7)
	c := cfg(taskgraph.RandomDeadline(40)*0.5, 1)
	first, second := statsOf(g, plat(16), c), statsOf(g, plat(16), c)
	if first.Combos != second.Combos || first.Eval != second.Eval || first.ProbeCache != second.ProbeCache {
		t.Errorf("16-core runs did different work:\n  first:  %+v %+v %+v\n  second: %+v %+v %+v",
			first.Combos, first.Eval, first.ProbeCache, second.Combos, second.Eval, second.ProbeCache)
	}
}

// TestExploreBaselineDeterministicAcrossParallelism repeats the contract for
// the annealing baselines, which share the engine.
func TestExploreBaselineDeterministicAcrossParallelism(t *testing.T) {
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(20), 3)
	p := plat(3)
	base := cfg(taskgraph.RandomDeadline(20), 1)
	base.SearchMoves = 200

	runAt := func(par int) string {
		c := base
		c.Parallelism = par
		best, err := Explore(g, p, SEAMapper(c), c)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		return designFingerprint(best)
	}
	ref := runAt(1)
	if got := runAt(4); got != ref {
		t.Errorf("best design diverged:\n  seq: %s\n  par: %s", ref, got)
	}
}

// TestExploreProgressOrdered checks the Progress contract: exactly one
// callback per combination, in enumeration order, at any parallelism.
func TestExploreProgressOrdered(t *testing.T) {
	g := taskgraph.MPEG2()
	p := plat(4)
	for _, par := range []int{1, 4} {
		c := cfg(taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames)
		c.SearchMoves = 60
		c.Parallelism = par
		var seen []int
		c.Progress = func(pr Progress) {
			seen = append(seen, pr.Index)
			if pr.Total != 15 {
				t.Errorf("Total = %d, want 15", pr.Total)
			}
			if pr.Combination != pr.Index {
				t.Errorf("Combination = %d at index %d; full enumerations visit in order", pr.Combination, pr.Index)
			}
			if pr.Pruned || pr.Skipped {
				if pr.Design != nil {
					t.Error("pruned/skipped event carries a design")
				}
			} else if pr.Design == nil || pr.Best == nil {
				t.Error("nil design in evaluated progress event")
			}
		}
		if _, err := Explore(g, p, SEAMapper(c), c); err != nil {
			t.Fatal(err)
		}
		if len(seen) != 15 {
			t.Fatalf("parallelism %d: %d progress events, want 15", par, len(seen))
		}
		for i, idx := range seen {
			if idx != i {
				t.Fatalf("parallelism %d: progress out of order: %v", par, seen)
			}
		}
	}
}

// TestExploreCancellation asserts Explore returns ctx.Err() promptly when
// cancelled mid-run, for both sequential and parallel pools.
func TestExploreCancellation(t *testing.T) {
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(60), 5)
	p := plat(4)
	for _, par := range []int{1, 4} {
		c := cfg(taskgraph.RandomDeadline(60), 1)
		c.SearchMoves = 200000 // far more work than the deadline allows
		c.Parallelism = par
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(30 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err := ExploreContext(ctx, g, p, SEAMapper(c), c)
		elapsed := time.Since(start)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: err = %v, want context.Canceled", par, err)
		}
		if elapsed > 5*time.Second {
			t.Errorf("parallelism %d: cancellation took %v, want prompt return", par, elapsed)
		}
	}

	// Ranked: cancelled during the seed pass's claim stream, the call
	// returns promptly, no prober outlives it or records anything after it,
	// and the partly climbed cache entries resume to the cold run's Design.
	rg, rp, rc := rankedWorkload16(t, false)
	coldBest, err := Explore(rg, rp, SEAMapper(rc), rc)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		c := rc
		c.Parallelism = par
		c.Reuse = NewReuse()
		tel := NewTelemetry()
		c.Telemetry = tel
		// The probe's climb polls the context once per move, so the
		// 1000th poll falls inside the ranked pass's first probes.
		ctx := newTripCtx(1000)
		_, err := ExploreContext(ctx, rg, rp, SEAMapper(c), c)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("ranked parallelism %d: err = %v, want context.Canceled", par, err)
		}
		if elapsed := ctx.sinceTrip(); elapsed > 5*time.Second {
			t.Errorf("ranked parallelism %d: cancellation took %v, want prompt return", par, elapsed)
		}
		st := tel.Stats()
		if st.Passes != 0 {
			t.Errorf("ranked parallelism %d: cancellation landed after the seed pass (%d stream passes)", par, st.Passes)
		}
		// A prober runs its deferred wg.Done before it returns, so it may
		// still be on a stack for a moment after the call; poll briefly.
		stacks := make([]byte, 1<<20)
		for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
			s := string(stacks[:runtime.Stack(stacks, true)])
			if !strings.Contains(s, "probeRankedStream") {
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("ranked parallelism %d: a prober outlived the cancelled call:\n%s", par, s)
				break
			}
		}
		// A prober that outlived the call only briefly still shows: its
		// span, probe count or evaluator counters land after the snapshot
		// (and race with it under -race).
		if after := tel.Stats(); !reflect.DeepEqual(after.Workers, st.Workers) ||
			after.ProbeCache != st.ProbeCache || after.Eval != st.Eval {
			t.Errorf("ranked parallelism %d: a prober recorded work after the cancelled call returned", par)
		}
		c.Telemetry = nil
		best, err := Explore(rg, rp, SEAMapper(c), c)
		if err != nil {
			t.Fatalf("ranked parallelism %d: rerun: %v", par, err)
		}
		if got, want := designFingerprint(best), designFingerprint(coldBest); got != want {
			t.Errorf("ranked parallelism %d: rerun on the cancelled cache diverged:\n  cold:  %s\n  rerun: %s", par, want, got)
		}
	}
}

// tripCtx is a context that reports cancellation from its n-th Err call on,
// so a test can cancel at a fixed point of the engine's work on any host.
type tripCtx struct {
	context.Context
	left atomic.Int64
	once sync.Once
	done chan struct{}
	trip time.Time
}

func newTripCtx(n int64) *tripCtx {
	c := &tripCtx{Context: context.Background(), done: make(chan struct{})}
	c.left.Store(n)
	return c
}

func (c *tripCtx) Done() <-chan struct{} { return c.done }

func (c *tripCtx) Err() error {
	if c.left.Add(-1) > 0 {
		return nil
	}
	c.once.Do(func() {
		c.trip = time.Now()
		close(c.done)
	})
	return context.Canceled
}

// sinceTrip is the time since the context reported cancellation.
func (c *tripCtx) sinceTrip() time.Duration {
	c.once.Do(func() {}) // orders the read after the trip's write
	return time.Since(c.trip)
}

// TestExplorePreCancelled: a context cancelled before the call returns
// immediately without mapping anything.
func TestExplorePreCancelled(t *testing.T) {
	g := taskgraph.MPEG2()
	p := plat(4)
	c := cfg(taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	mapper := func(mc *MapContext) (sched.Mapping, *metrics.Evaluation, error) {
		if mc.Ctx.Err() == nil {
			called = true
		}
		return nil, nil, mc.Ctx.Err()
	}
	if _, err := ExploreContext(ctx, g, p, mapper, c); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if called {
		t.Error("mapper ran with a live context after pre-cancellation")
	}
}

// TestExploreMapperErrorPropagates: a mapper failure surfaces as an error
// naming the scaling, at any parallelism, and aborts the combinations still
// being mapped.
func TestExploreMapperErrorPropagates(t *testing.T) {
	g := taskgraph.MPEG2()
	p := plat(4)
	boom := errors.New("mapper exploded")
	for _, par := range []int{1, 4} {
		c := cfg(taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames)
		c.Parallelism = par
		mapper := func(mc *MapContext) (sched.Mapping, *metrics.Evaluation, error) {
			return nil, nil, boom
		}
		_, err := ExploreContext(context.Background(), g, p, mapper, c)
		if !errors.Is(err, boom) {
			t.Errorf("parallelism %d: err = %v, want wrapped mapper error", par, err)
		}
	}

	// A failure aborts the combinations still being mapped: the first mapper
	// call fails once every other worker is inside a mapper that ends only
	// with its context, so the call returns promptly, with the failure, only
	// if the failure cancels them.
	for _, par := range []int{2, 4} {
		c := cfg(taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames)
		c.Parallelism = par
		c.Strategy = StrategyExhaustive
		var calls, blocked atomic.Int32
		mapper := func(mc *MapContext) (sched.Mapping, *metrics.Evaluation, error) {
			if calls.Add(1) == 1 {
				for deadline := time.Now().Add(5 * time.Second); blocked.Load() < int32(par-1) && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				return nil, nil, boom
			}
			blocked.Add(1)
			select {
			case <-mc.Ctx.Done():
				return nil, nil, mc.Ctx.Err()
			case <-time.After(10 * time.Second):
				return nil, nil, errors.New("mapper ran on after another combination failed")
			}
		}
		start := time.Now()
		_, err := ExploreContext(context.Background(), g, p, mapper, c)
		if !errors.Is(err, boom) {
			t.Errorf("parallelism %d, in-flight mappers: err = %v, want wrapped mapper error", par, err)
		}
		if elapsed := time.Since(start); elapsed > 8*time.Second {
			t.Errorf("parallelism %d: the failure took %v to return, want the in-flight mappers aborted", par, elapsed)
		}
	}
}

// TestProbeCacheShared: with a shared cache, the probe runs once per scaling
// across two explorations over the same workload.
func TestProbeCacheShared(t *testing.T) {
	g := taskgraph.MPEG2()
	p := plat(4)
	c := cfg(taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames)
	c.SearchMoves = 60
	c.Strategy = StrategyExhaustive // probe must run at every scaling
	c.Reuse = NewReuse()
	best1, err := Explore(g, p, SEAMapper(c), c)
	if err != nil {
		t.Fatal(err)
	}
	cached := c.Reuse.Probe().Len()
	if cached != 15 {
		t.Fatalf("probe cache holds %d scalings after one explore, want 15", cached)
	}
	best2, err := Explore(g, p, SEAMapper(c), c)
	if err != nil {
		t.Fatal(err)
	}
	if c.Reuse.Probe().Len() != cached {
		t.Errorf("second explore grew the probe cache to %d entries", c.Reuse.Probe().Len())
	}
	if designFingerprint(best1) != designFingerprint(best2) {
		t.Errorf("shared probe cache changed the result:\n  1st: %s\n  2nd: %s",
			designFingerprint(best1), designFingerprint(best2))
	}
}

// TestComboSeedDecorrelates: distinct combinations must get distinct seeds
// and the derivation must be a pure function of (seed, index).
func TestComboSeedDecorrelates(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		s := comboSeed(2010, i)
		if seen[s] {
			t.Fatalf("duplicate combo seed at index %d", i)
		}
		seen[s] = true
		if s != comboSeed(2010, i) {
			t.Fatal("comboSeed not deterministic")
		}
	}
}
