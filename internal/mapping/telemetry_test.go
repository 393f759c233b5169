package mapping

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"seadopt/internal/taskgraph"
)

// progressFingerprint renders one Progress event byte-comparably. It must
// run inside the callback: the engine recycles the Scaling slab as soon as
// the callback returns.
func progressFingerprint(ev Progress) string {
	return fmt.Sprintf("i=%d t=%d c=%d s=%v pruned=%v skipped=%v adm=%v fs=%d d=%s",
		ev.Index, ev.Total, ev.Combination, ev.Scaling, ev.Pruned, ev.Skipped,
		ev.Admitted, ev.FrontierSize, designFingerprint(ev.Design))
}

// TestExploreDeterministicTelemetryOnOff is the observability contract:
// attaching a Telemetry collector changes nothing observable — the chosen
// design, the per-combination designs and the whole Progress stream are
// byte-identical with telemetry on or off, at parallelism 1, 4 and NumCPU.
func TestExploreDeterministicTelemetryOnOff(t *testing.T) {
	g := taskgraph.MPEG2()
	p := plat(4)

	type run struct {
		best string
		per  []string
		prog []string
	}
	runAt := func(par int, tel *Telemetry) run {
		c := cfg(taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames)
		c.SearchMoves = 300
		c.Parallelism = par
		c.Telemetry = tel
		var evs []string
		c.Progress = func(pr Progress) { evs = append(evs, progressFingerprint(pr)) }
		per := recordDesigns(&c)
		best, err := Explore(g, p, SEAMapper(c), c)
		if err != nil {
			t.Fatalf("parallelism %d telemetry=%v: %v", par, tel != nil, err)
		}
		r := run{best: designFingerprint(best), prog: evs}
		for _, d := range per.designs(t) {
			r.per = append(r.per, designFingerprint(d))
		}
		return r
	}

	ref := runAt(1, nil)
	for _, par := range []int{1, 4, runtime.NumCPU()} {
		got := runAt(par, NewTelemetry())
		if got.best != ref.best {
			t.Errorf("parallelism %d with telemetry: best diverged:\n  off: %s\n  on:  %s",
				par, ref.best, got.best)
		}
		if fmt.Sprint(got.per) != fmt.Sprint(ref.per) {
			t.Errorf("parallelism %d with telemetry: per-combination designs diverged", par)
		}
		if len(got.prog) != len(ref.prog) {
			t.Fatalf("parallelism %d with telemetry: %d progress events, want %d",
				par, len(got.prog), len(ref.prog))
		}
		for i := range ref.prog {
			if got.prog[i] != ref.prog[i] {
				t.Errorf("parallelism %d with telemetry: progress[%d] diverged:\n  off: %s\n  on:  %s",
					par, i, ref.prog[i], got.prog[i])
			}
		}
	}
}

// TestExploreDeterministicTelemetryPareto repeats the on/off contract for
// the Pareto fold: the frontier and its Progress stream (admissions,
// frontier sizes) are unchanged by an attached collector.
func TestExploreDeterministicTelemetryPareto(t *testing.T) {
	g := taskgraph.MPEG2()
	p := plat(4)

	runAt := func(par int, tel *Telemetry) (string, []string) {
		c := cfg(taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames)
		c.SearchMoves = 300
		c.Parallelism = par
		c.Telemetry = tel
		var evs []string
		c.Progress = func(pr Progress) { evs = append(evs, progressFingerprint(pr)) }
		frontier, err := ExploreParetoContext(context.Background(), g, p, SEAMapper(c), c)
		if err != nil {
			t.Fatalf("parallelism %d telemetry=%v: %v", par, tel != nil, err)
		}
		fp := ""
		for _, d := range frontier {
			fp += designFingerprint(d) + "\n"
		}
		return fp, evs
	}

	refFront, refProg := runAt(1, nil)
	for _, par := range []int{1, 4, runtime.NumCPU()} {
		gotFront, gotProg := runAt(par, NewTelemetry())
		if gotFront != refFront {
			t.Errorf("parallelism %d with telemetry: frontier diverged:\n  off:\n%s  on:\n%s",
				par, refFront, gotFront)
		}
		if fmt.Sprint(gotProg) != fmt.Sprint(refProg) {
			t.Errorf("parallelism %d with telemetry: pareto progress stream diverged", par)
		}
	}
}

// TestExploreShardedTelemetryOnOff extends the on/off contract to sharded
// runs: with a collector attached to the coordinator, ExploreSharded's
// Design and Progress stream equal those of the run without one, plain and
// ranked, at Parallelism 1 and 4 over 2 embedded shards, and the collector
// counts every combination of the coordinator's main pass.
func TestExploreShardedTelemetryOnOff(t *testing.T) {
	g := taskgraph.MPEG2()
	p := plat(4)
	for _, ranked := range []bool{false, true} {
		runAt := func(par int, tel *Telemetry) (string, []string) {
			c := cfg(taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames)
			c.SearchMoves = 300
			c.Parallelism = par
			c.Ranked = ranked
			c.Telemetry = tel
			var evs []string
			c.Progress = func(pr Progress) { evs = append(evs, progressFingerprint(pr)) }
			best, err := ExploreSharded(context.Background(), g, p, SEAMapper(c), c, make([]ShardRunner, 2))
			if err != nil {
				t.Fatalf("ranked=%v parallelism %d telemetry=%v: %v", ranked, par, tel != nil, err)
			}
			return designFingerprint(best), evs
		}
		refBest, refProg := runAt(1, nil)
		for _, par := range []int{1, 4} {
			tel := NewTelemetry()
			best, prog := runAt(par, tel)
			if best != refBest {
				t.Errorf("ranked=%v parallelism %d with telemetry: best diverged:\n  off: %s\n  on:  %s",
					ranked, par, refBest, best)
			}
			if fmt.Sprint(prog) != fmt.Sprint(refProg) {
				t.Errorf("ranked=%v parallelism %d with telemetry: progress stream diverged", ranked, par)
			}
			if st := tel.Stats(); st.Combos.Total != int64(len(refProg)) {
				t.Errorf("ranked=%v parallelism %d: telemetry counted %d combinations, the stream has %d",
					ranked, par, st.Combos.Total, len(refProg))
			}
		}
	}
}

// TestTelemetryAccounting checks the snapshot's internal consistency: the
// verdict counters partition the fold total, phase clocks and worker spans
// are non-negative and within the wall clock's order of magnitude, and the
// deterministic counters match across parallelism.
func TestTelemetryAccounting(t *testing.T) {
	g := taskgraph.MPEG2()
	p := plat(4)

	statsAt := func(par int, ranked bool) *ExploreStats {
		c := cfg(taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames)
		c.SearchMoves = 300
		c.Parallelism = par
		c.Ranked = ranked
		tel := NewTelemetry()
		c.Telemetry = tel
		if _, err := Explore(g, p, SEAMapper(c), c); err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		return tel.Stats()
	}

	seq := statsAt(1, false)
	if seq.Passes < 1 {
		t.Fatalf("Passes = %d, want >= 1", seq.Passes)
	}
	if got := seq.Combos.Evaluated + seq.Combos.Pruned + seq.Combos.Skipped; got != seq.Combos.Total {
		t.Errorf("verdicts don't partition: %d+%d+%d != %d",
			seq.Combos.Evaluated, seq.Combos.Pruned, seq.Combos.Skipped, seq.Combos.Total)
	}
	if seq.Combos.Total != 15 { // MPEG2 on 4 cores × 3 levels: C(3+4-1,4) = 15
		t.Errorf("Combos.Total = %d, want 15", seq.Combos.Total)
	}
	if seq.Combos.MapperRuns == 0 {
		t.Error("MapperRuns = 0: the mapper must have run for the chosen design")
	}
	for _, ns := range []int64{
		seq.WallNanos, seq.Phases.BoundsNanos, seq.Phases.RankedSeedNanos,
		seq.Phases.EnumerationNanos, seq.Phases.ProbeNanos,
		seq.Phases.MapperNanos, seq.Phases.FoldNanos,
	} {
		if ns < 0 {
			t.Errorf("negative phase clock: %+v", seq.Phases)
		}
	}
	if seq.Phases.MapperNanos > seq.WallNanos {
		t.Errorf("sequential mapper busy %d ns exceeds wall %d ns", seq.Phases.MapperNanos, seq.WallNanos)
	}
	if len(seq.Workers) != 1 {
		t.Fatalf("sequential run has %d workers, want 1", len(seq.Workers))
	}
	var spanned int64
	for _, sp := range seq.Workers[0].Spans {
		if sp.EndNanos < sp.StartNanos {
			t.Errorf("span ends before it starts: %+v", sp)
		}
		spanned++
	}
	if spanned != seq.Workers[0].Combinations {
		t.Errorf("recorded %d spans but counted %d combinations (none should be dropped here)",
			spanned, seq.Workers[0].Combinations)
	}
	if seq.Eval.Evaluations == 0 {
		t.Error("evaluator stats empty: expected merged per-worker EvalStats")
	}

	par := statsAt(4, false)
	// Fold-time verdict counters are deterministic; MapperRuns/MapperSpared
	// are worker-side and legitimately vary with dispatch timing (a
	// combination can be dispatched before the skip that would spare it).
	det := func(c ComboStats) [4]int64 { return [4]int64{c.Total, c.Evaluated, c.Pruned, c.Skipped} }
	if det(par.Combos) != det(seq.Combos) {
		t.Errorf("deterministic combo counters diverged across parallelism:\n  seq: %+v\n  par: %+v",
			seq.Combos, par.Combos)
	}
	// streamSpans counts the "map" and "skip" spans, and rankRows the
	// ranked pass's "rank" spans on each worker row.
	spans := func(st *ExploreStats) (streamSpans int64, rankRows []int) {
		rankRows = make([]int, len(st.Workers))
		for w, ws := range st.Workers {
			for _, sp := range ws.Spans {
				if sp.Kind == "rank" {
					rankRows[w]++
				} else {
					streamSpans++
				}
			}
		}
		return streamSpans, rankRows
	}
	// Workers only see claimed combinations that need the mapper (a claim
	// resolves pruned/skipped ones itself), and every mapper run rode a
	// worker span.
	if parCombos, _ := spans(par); parCombos > par.Combos.Total || parCombos < par.Combos.MapperRuns {
		t.Errorf("worker combination sum %d outside [MapperRuns %d, Total %d]",
			parCombos, par.Combos.MapperRuns, par.Combos.Total)
	}
	// The ranked pass's workers claim its probes from one stream, so one
	// worker may take every claim; its "rank" spans sit only on the rows of
	// its 4 workers, at least as many as the serial walk probes, ahead of a
	// stream whose spans keep the same bounds.
	sum := func(rows []int) (n int) {
		for _, r := range rows {
			n += r
		}
		return n
	}
	_, serialRows := spans(statsAt(1, true))
	ranked := statsAt(4, true)
	streamSpans, rankRows := spans(ranked)
	for w, n := range rankRows {
		if n > 0 && w >= 4 {
			t.Errorf("ranked pass recorded %d \"rank\" spans on worker row %d, past its 4 workers", n, w)
		}
	}
	if serial, got := sum(serialRows), sum(rankRows); serial == 0 || got < serial {
		t.Errorf("ranked pass recorded %d \"rank\" spans at parallelism 4 and %d serially: want some, and at least the serial walk's", got, serial)
	}
	if streamSpans > ranked.Combos.Total || streamSpans < ranked.Combos.MapperRuns {
		t.Errorf("ranked run: %d map/skip spans outside [MapperRuns %d, Total %d]",
			streamSpans, ranked.Combos.MapperRuns, ranked.Combos.Total)
	}
	// Incumbent events are decided by the fold, in visit order under the
	// stream's lock: identical streams.
	kinds := func(st *ExploreStats) string {
		s := ""
		for _, ev := range st.Events {
			s += fmt.Sprintf("%s@%d;", ev.Kind, ev.Index)
		}
		return s
	}
	if kinds(par) != kinds(seq) {
		t.Errorf("event sequence diverged across parallelism:\n  seq: %s\n  par: %s",
			kinds(seq), kinds(par))
	}
}

// TestTelemetryAccumulatesAcrossPasses: an impossible deadline makes the
// engine re-fold the space (all-infeasible fallback); the collector must
// count both passes rather than resetting.
func TestTelemetryAccumulatesAcrossPasses(t *testing.T) {
	g := taskgraph.MPEG2()
	p := plat(4)
	c := cfg(1e-6, taskgraph.MPEG2Frames) // unmeetable deadline
	c.SearchMoves = 100
	tel := NewTelemetry()
	c.Telemetry = tel
	best, err := Explore(g, p, SEAMapper(c), c)
	if err != nil {
		t.Fatal(err)
	}
	if best == nil {
		t.Fatal("fallback must still choose a least-infeasible design")
	}
	st := tel.Stats()
	if st.Passes < 2 {
		t.Fatalf("Passes = %d, want >= 2 (all-infeasible fallback re-folds)", st.Passes)
	}
	if got := st.Combos.Evaluated + st.Combos.Pruned + st.Combos.Skipped; got != st.Combos.Total {
		t.Errorf("verdicts don't partition across passes: %+v", st.Combos)
	}
	if st.Combos.Total < 30 {
		t.Errorf("Combos.Total = %d, want >= 30 (two passes over 15 combinations)", st.Combos.Total)
	}
}
