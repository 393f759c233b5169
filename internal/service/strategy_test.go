package service

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"seadopt"
	"seadopt/internal/ingest"
)

// TestStrategyInProblemIdentity: the strategy job option participates in
// the cache key, so an exact and a sampled submission of the same workload
// are different problems and never share results.
func TestStrategyInProblemIdentity(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})

	exact := mpeg2Problem(t, 2010)
	st1, err := s.Submit(exact, 0)
	if err != nil {
		t.Fatal(err)
	}
	sampled := mpeg2Problem(t, 2010)
	sampled.Options.Strategy = "sampled"
	sampled.Options.SampleBudget = 5
	st2, err := s.Submit(sampled, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Key == st2.Key {
		t.Fatalf("sampled and exact submissions share key %s", st1.Key)
	}
	f1 := waitState(t, s, st1.ID, StateDone)
	f2 := waitState(t, s, st2.ID, StateDone)
	if len(f1.Result) == 0 || len(f2.Result) == 0 {
		t.Fatal("missing results")
	}
	m := s.Metrics()
	if m.EngineExecutions != 2 {
		t.Fatalf("engine executed %d times for two distinct-strategy problems, want 2", m.EngineExecutions)
	}

	// Exhaustive is a distinct problem from the default branch-and-bound
	// key too (cached results never cross strategies), even though the
	// designs are byte-identical.
	exh := mpeg2Problem(t, 2010)
	exh.Options.Strategy = "exhaustive"
	st3, err := s.Submit(exh, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Key == st1.Key {
		t.Fatal("exhaustive submission shares the branch-and-bound key")
	}
	f3 := waitState(t, s, st3.ID, StateDone)
	if !bytes.Equal(f3.Result, f1.Result) {
		t.Fatalf("exhaustive and branch-and-bound designs differ:\n%s\nvs\n%s", f3.Result, f1.Result)
	}
}

// TestDefaultStrategyApplied: a daemon-level default strategy is folded in
// before hashing, so omitting the option equals naming the default.
func TestDefaultStrategyApplied(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, DefaultStrategy: "exhaustive"})
	st1, err := s.Submit(mpeg2Problem(t, 2010), 0)
	if err != nil {
		t.Fatal(err)
	}
	explicit := mpeg2Problem(t, 2010)
	explicit.Options.Strategy = "exhaustive"
	st2, err := s.Submit(explicit, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Key != st2.Key {
		t.Fatalf("default-strategy submission keyed %s, explicit %s", st1.Key, st2.Key)
	}
	waitState(t, s, st1.ID, StateDone)
}

// TestProgressCarriesPruning: under the default strategy the MPEG-2
// exploration prunes/skips part of the space; the SSE-visible event stream
// must mark those combinations and carry a running pruned count, and the
// engine counters must add up to the enumeration size.
func TestProgressCarriesPruning(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	st, err := s.Submit(mpeg2Problem(t, 2010), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateDone)
	w, err := s.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var events []ProgressEvent
	for {
		ev, ok := w.Next(context.Background())
		if !ok {
			break
		}
		events = append(events, ev)
	}
	if len(events) != 15 {
		t.Fatalf("%d progress events, want 15 (every combination resolves)", len(events))
	}
	pruned := 0
	for i, ev := range events {
		if ev.Index != i || ev.Combination != i {
			t.Fatalf("event %d has index %d / combination %d", i, ev.Index, ev.Combination)
		}
		if ev.Pruned || ev.Skipped {
			pruned++
			if ev.PowerW != 0 || ev.Gamma != 0 {
				t.Errorf("pruned event %d carries design metrics", i)
			}
		}
		if ev.PrunedTotal != pruned {
			t.Errorf("event %d: pruned_total %d, want %d", i, ev.PrunedTotal, pruned)
		}
	}
	if pruned == 0 {
		t.Error("branch-and-bound avoided nothing on MPEG-2; bound never engaged")
	}
	m := s.Metrics()
	if m.CombinationsPruned != int64(pruned) {
		t.Errorf("combinations_pruned counter %d, events say %d", m.CombinationsPruned, pruned)
	}
	if m.CombinationsExplored+m.CombinationsPruned != 15 {
		t.Errorf("explored %d + pruned %d != 15", m.CombinationsExplored, m.CombinationsPruned)
	}

	var buf bytes.Buffer
	renderMetrics(&buf, m)
	out := buf.String()
	for _, want := range []string{
		"seadoptd_combinations_explored_total",
		"seadoptd_combinations_pruned_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestSampledJobRuns: a sampled job explores exactly its budget and
// reports it as the progress total.
func TestSampledJobRuns(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	p := mpeg2Problem(t, 2010)
	p.Options.Strategy = "sampled"
	p.Options.SampleBudget = 6
	st, err := s.Submit(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, StateDone)
	if final.Total != 6 || final.Completed != 6 {
		t.Fatalf("sampled job progress %d/%d, want 6/6", final.Completed, final.Total)
	}
}

// TestInvalidStrategyRejected: an unknown strategy fails at submission
// time, not inside the engine.
func TestInvalidStrategyRejected(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	p := mpeg2Problem(t, 2010)
	p.Options.Strategy = "greedy"
	if _, err := s.Submit(p, 0); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestEngineOptions: every problem option the engine reads reaches the
// engine's options, and every job but a sweep shares the server's reuse
// bundle for its probe universe.
func TestEngineOptions(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, EngineParallelism: 3})
	all := seadopt.ObjectivePower | seadopt.ObjectiveMakespan | seadopt.ObjectiveGamma
	cases := []struct {
		name  string
		opts  ingest.Options
		want  seadopt.OptimizeOptions
		reuse bool
	}{
		{"scalar", ingest.Options{SER: 2e-9, DeadlineSec: 12.5, StreamIterations: 7, SearchMoves: 99, Seed: 42, Strategy: "exhaustive"},
			seadopt.OptimizeOptions{SER: 2e-9, DeadlineSec: 12.5, StreamIterations: 7, SearchMoves: 99, Seed: 42,
				Strategy: seadopt.StrategyExhaustive, Objectives: all, Parallelism: 3}, true},
		{"sampled", ingest.Options{Strategy: "sampled", SampleBudget: 17},
			seadopt.OptimizeOptions{Strategy: seadopt.StrategySampled, SampleBudget: 17, Objectives: all, Parallelism: 3}, true},
		{"pareto", ingest.Options{Mode: "pareto", Objectives: "gamma,power"},
			seadopt.OptimizeOptions{Strategy: seadopt.StrategyBranchAndBound,
				Objectives: seadopt.ObjectivePower | seadopt.ObjectiveGamma, Parallelism: 3}, true},
		{"sweep", ingest.Options{Mode: "sweep", SweepDeadlines: []float64{10, 12}, Seed: 5},
			seadopt.OptimizeOptions{Seed: 5, Strategy: seadopt.StrategyBranchAndBound, Objectives: all, Parallelism: 3}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := mpeg2Problem(t, 1)
			p.Options = tc.opts
			got, err := s.engineOptions(p)
			if err != nil {
				t.Fatal(err)
			}
			if (got.Reuse != nil) != tc.reuse {
				t.Fatalf("shared reuse bundle %v, want %v", got.Reuse != nil, tc.reuse)
			}
			got.Reuse = nil
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("engine options\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
	p := mpeg2Problem(t, 1)
	p.Options.Strategy = "greedy"
	if _, err := s.engineOptions(p); err == nil {
		t.Fatal("unknown strategy translated without an error")
	}
}
