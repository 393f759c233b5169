package mapping

// Progress delivery sits on the explore hot path: one event per scaling
// combination. The engine therefore hoists a single event struct per
// explore and recycles the slab behind Scaling once the callback returns
// (the BORROWED contract on Progress). These guards pin that down: the
// test asserts that enabling Progress adds (amortized) zero allocations
// per event over a silent run, and the benchmark reports allocs/op for a
// live-callback explore so regressions show up in bench output too.

import (
	"testing"

	"seadopt/internal/taskgraph"
)

// progressWorkload is a small sequential exhaustive explore: 12 tasks on
// 6 homogeneous 3-level cores = 28 combinations per run, enough events to
// average over but cheap enough for AllocsPerRun rounds.
func progressWorkload() (cfgOut Config, run func(testing.TB, Config)) {
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(12), 5)
	p := plat(6)
	c := cfg(taskgraph.RandomDeadline(12), 1)
	c.SearchMoves = 40
	c.Parallelism = 1
	c.Strategy = StrategyExhaustive
	return c, func(t testing.TB, c Config) {
		if _, err := Explore(g, p, SEAMapper(c), c); err != nil {
			t.Fatal(err)
		}
	}
}

// TestProgressDeliveryAllocFree differences the allocation counts of
// Progress-enabled and silent runs of the identical explore. The engine
// reuses one event struct per explore, so the per-event overhead must be
// (amortized) zero — the threshold of 0.5 allocs/event fails if anyone
// reintroduces even a single per-event allocation.
func TestProgressDeliveryAllocFree(t *testing.T) {
	base, run := progressWorkload()

	events := 0
	loud := base
	loud.Progress = func(Progress) { events++ }

	// Warm both paths so lazily initialized runtime state doesn't count.
	run(t, base)
	run(t, loud)

	const rounds = 5
	silentAllocs := testing.AllocsPerRun(rounds, func() { run(t, base) })
	events = 0
	loudAllocs := testing.AllocsPerRun(rounds, func() { run(t, loud) })
	perRun := events / (rounds + 1)
	if perRun == 0 {
		t.Fatal("no progress events delivered")
	}
	perEvent := (loudAllocs - silentAllocs) / float64(perRun)
	t.Logf("%d events/run, %.1f allocs silent, %.1f allocs with callback, %.3f allocs/event",
		perRun, silentAllocs, loudAllocs, perEvent)
	if perEvent > 0.5 {
		t.Errorf("progress delivery allocates %.3f allocs/event, want (amortized) zero", perEvent)
	}
}

// BenchmarkProgressDelivery runs the same explore with a live callback and
// reports allocs/op — the companion visibility for the test above.
func BenchmarkProgressDelivery(b *testing.B) {
	c, run := progressWorkload()
	events := 0
	c.Progress = func(Progress) { events++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(b, c)
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}
