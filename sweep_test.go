package seadopt

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"seadopt/internal/mapping"
)

// sweepFP renders everything that identifies a returned design bit for bit.
func sweepFP(d *Design) string {
	if d == nil {
		return "nil"
	}
	return fmt.Sprintf("s=%v m=%v tm=%x p=%x g=%x met=%v",
		d.Scaling, d.Mapping, d.Eval.TMSeconds, d.Eval.PowerW, d.Eval.Gamma, d.Eval.MeetsDeadline)
}

func sweepMapFP(d *mapping.Design) string {
	if d == nil {
		return "nil"
	}
	return fmt.Sprintf("s=%v m=%v tm=%x p=%x g=%x met=%v",
		d.Scaling, d.Mapping, d.Eval.TMSeconds, d.Eval.PowerW, d.Eval.Gamma, d.Eval.MeetsDeadline)
}

func frontierFP(frontier []*Design) string {
	var sb strings.Builder
	for i, d := range frontier {
		fmt.Fprintf(&sb, "[%d] %s\n", i, sweepFP(d))
	}
	return sb.String()
}

// progressFP renders one Progress event completely, including the
// pruned/skipped verdict split and the incumbent after folding.
func progressFP(ev ExploreProgress) string {
	return fmt.Sprintf("i=%d/%d c=%d s=%v pruned=%v skipped=%v d={%s} best={%s} fs=%d adm=%v",
		ev.Index, ev.Total, ev.Combination, ev.Scaling, ev.Pruned, ev.Skipped,
		sweepMapFP(ev.Design), sweepMapFP(ev.Best), ev.FrontierSize, ev.Admitted)
}

// sweepTestPoints is a mixed scalar/Pareto sweep over three deadlines and
// two objective sets.
func sweepTestPoints(t *testing.T) []SweepPoint {
	t.Helper()
	pm, err := ParseParetoObjectives("power,makespan")
	if err != nil {
		t.Fatal(err)
	}
	return []SweepPoint{
		{DeadlineSec: MPEG2Deadline * 1.5},
		{DeadlineSec: MPEG2Deadline},
		{DeadlineSec: MPEG2Deadline, Pareto: true},
		{DeadlineSec: MPEG2Deadline, Pareto: true, Objectives: pm},
		{DeadlineSec: MPEG2Deadline * 0.8, Pareto: true},
		{DeadlineSec: MPEG2Deadline * 0.8},
	}
}

// coldPointRun evaluates one sweep point the pre-sweep way: a fresh,
// unshared, unseeded Optimize/OptimizePareto call.
func coldPointRun(t *testing.T, sys *System, base OptimizeOptions, pt SweepPoint,
	progress func(ExploreProgress)) (string, string) {
	t.Helper()
	o := base
	o.DeadlineSec = pt.DeadlineSec
	o.Progress = progress
	if pt.Pareto {
		o.Objectives = pt.Objectives
		frontier, err := sys.OptimizePareto(o)
		if err != nil {
			t.Fatal(err)
		}
		return "", frontierFP(frontier)
	}
	d, err := sys.Optimize(o)
	if err != nil {
		t.Fatal(err)
	}
	return sweepFP(d), ""
}

// TestSweepColdByteIdenticalAcrossParallelism is the sweep's core property:
// with NoWarmStart set, every point of a batch sweep — scalar and Pareto,
// sharing one probe cache, bounds precompute and evaluator pool — yields a
// Design/frontier AND a complete per-point Progress event stream (including
// the pruned/skipped split) byte-identical to an independent cold run of
// that point, at Parallelism 1, 4 and GOMAXPROCS.
func TestSweepColdByteIdenticalAcrossParallelism(t *testing.T) {
	sys, err := NewARM7System(MPEG2(), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	points := sweepTestPoints(t)
	base := OptimizeOptions{
		StreamIterations: MPEG2Frames,
		SearchMoves:      200,
		Seed:             2010,
	}

	for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		b := base
		b.Parallelism = par

		coldDesign := make([]string, len(points))
		coldFrontier := make([]string, len(points))
		coldProg := make([][]string, len(points))
		for i, pt := range points {
			idx := i
			coldDesign[i], coldFrontier[i] = coldPointRun(t, sys, b, pt, func(ev ExploreProgress) {
				coldProg[idx] = append(coldProg[idx], progressFP(ev))
			})
		}

		sweepProg := make([][]string, len(points))
		res, err := sys.OptimizeSweep(points, SweepOptions{
			Options:     b,
			NoWarmStart: true,
			PointProgress: func(point int, ev ExploreProgress) {
				sweepProg[point] = append(sweepProg[point], progressFP(ev))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(points) {
			t.Fatalf("parallelism %d: %d results for %d points", par, len(res), len(points))
		}
		for i, r := range res {
			if r.Point != i {
				t.Errorf("parallelism %d: result %d tagged point %d", par, i, r.Point)
			}
			if got, want := sweepFP(r.Design), coldDesign[i]; points[i].Pareto {
				if r.Design != nil {
					t.Errorf("parallelism %d point %d: Pareto point returned a scalar Design", par, i)
				}
			} else if got != want {
				t.Errorf("parallelism %d point %d: design diverged from cold run:\n  sweep: %s\n  cold:  %s",
					par, i, got, want)
			}
			if points[i].Pareto {
				if got, want := frontierFP(r.Frontier), coldFrontier[i]; got != want {
					t.Errorf("parallelism %d point %d: frontier diverged from cold run:\n  sweep:\n%s  cold:\n%s",
						par, i, got, want)
				}
			} else if r.Frontier != nil {
				t.Errorf("parallelism %d point %d: scalar point returned a frontier", par, i)
			}
			if got, want := strings.Join(sweepProg[i], "\n"), strings.Join(coldProg[i], "\n"); got != want {
				t.Errorf("parallelism %d point %d: progress stream diverged from cold run (%d vs %d events)",
					par, i, len(sweepProg[i]), len(coldProg[i]))
			}
		}
	}
}

// TestSweepWarmStartSameResults drops NoWarmStart: scalar points pre-seed
// their incumbent via the ranked pass, which may change the pruned/skipped
// split — but every returned Design and frontier must still be
// byte-identical to cold runs.
func TestSweepWarmStartSameResults(t *testing.T) {
	sys, err := NewARM7System(MPEG2(), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	points := sweepTestPoints(t)
	base := OptimizeOptions{
		StreamIterations: MPEG2Frames,
		SearchMoves:      200,
		Seed:             2010,
		Parallelism:      4,
	}

	coldDesign := make([]string, len(points))
	coldFrontier := make([]string, len(points))
	for i, pt := range points {
		coldDesign[i], coldFrontier[i] = coldPointRun(t, sys, base, pt, nil)
	}

	res, err := sys.OptimizeSweep(points, SweepOptions{Options: base})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if points[i].Pareto {
			if got, want := frontierFP(r.Frontier), coldFrontier[i]; got != want {
				t.Errorf("point %d: warm frontier diverged from cold run:\n  warm:\n%s  cold:\n%s", i, got, want)
			}
		} else if got, want := sweepFP(r.Design), coldDesign[i]; got != want {
			t.Errorf("point %d: warm design diverged from cold run:\n  warm: %s\n  cold: %s", i, got, want)
		}
	}
}

// TestSweepDeadlineOnlyProbeHitRate pins the tentpole's cache economics: in
// a deadline-only sweep every combination is probed once for the whole
// batch. Under StrategyExhaustive each of the 8 points probes all 15
// combinations of the 4-core/3-level space. Exactly 15 probes miss, the
// first point's, and the remaining 7×15 are pure cache hits: on this
// workload each climb the first point runs stops at a makespan that meets
// the tightest point's deadline or spends its whole move budget, so no
// later point climbs further.
func TestSweepDeadlineOnlyProbeHitRate(t *testing.T) {
	sys, err := NewARM7System(MPEG2(), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	var points []SweepPoint
	for i := 0; i < 8; i++ {
		points = append(points, SweepPoint{DeadlineSec: MPEG2Deadline * (1.4 - 0.1*float64(i))})
	}
	var stats ExploreStats
	_, err = sys.OptimizeSweep(points, SweepOptions{Options: OptimizeOptions{
		StreamIterations: MPEG2Frames,
		SearchMoves:      150,
		Seed:             7,
		Parallelism:      1,
		Strategy:         StrategyExhaustive,
		Stats:            &stats,
	}})
	if err != nil {
		t.Fatal(err)
	}
	const combos = 15
	if stats.ProbeCache.Misses != combos {
		t.Errorf("probe misses = %d, want %d (one per combination for the whole sweep)",
			stats.ProbeCache.Misses, combos)
	}
	if want := int64(7 * combos); stats.ProbeCache.Hits != want {
		t.Errorf("probe hits = %d, want %d (every later point served from cache)",
			stats.ProbeCache.Hits, want)
	}
}

// TestSweepLeavesBundleAsSingleRun: a sweep through a reuse bundle leaves
// it as single runs at the same deadlines would. Bundle A serves a
// one-point sweep at half the §V deadline, bundle B a ranked Optimize at
// that deadline. A later Optimize at the §V deadline then probes
// combinations the tight runs pruned, and each climb goes only as deep as
// the looser deadline needs through either bundle: the same number of
// makespan calls.
func TestSweepLeavesBundleAsSingleRun(t *testing.T) {
	g, err := RandomGraph(DefaultRandomGraphConfig(40), 7)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewARM7System(g, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := RandomGraphDeadline(40)
	opts := OptimizeOptions{Parallelism: 1, Ranked: true}

	tight := opts
	tight.DeadlineSec = d / 2
	swept := opts
	swept.Reuse = NewExploreReuse()
	if _, err := sys.OptimizeSweep([]SweepPoint{{DeadlineSec: tight.DeadlineSec}}, SweepOptions{Options: swept}); err != nil {
		t.Fatal(err)
	}
	single := tight
	single.Reuse = NewExploreReuse()
	if _, err := sys.Optimize(single); err != nil {
		t.Fatal(err)
	}

	loose := func(reuse *ExploreReuse) (*Design, int64) {
		o := opts
		o.DeadlineSec = d
		o.Reuse = reuse
		var st ExploreStats
		o.Stats = &st
		design, err := sys.Optimize(o)
		if err != nil {
			t.Fatal(err)
		}
		return design, st.Eval.Makespans
	}
	afterSweep, sweepCalls := loose(swept.Reuse)
	afterSingle, singleCalls := loose(single.Reuse)
	if sweepCalls != singleCalls {
		t.Errorf("loose Optimize made %d makespan calls after the sweep, %d after a single run", sweepCalls, singleCalls)
	}
	if a, b := sweepFP(afterSweep), sweepFP(afterSingle); a != b {
		t.Errorf("loose designs diverged:\n  after sweep:  %s\n  after single: %s", a, b)
	}
}
