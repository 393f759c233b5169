package search

import (
	"fmt"
	"reflect"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/faults"
	"seadopt/internal/metrics"
	"seadopt/internal/sched"
	"seadopt/internal/taskgraph"
)

// fullEvaluation returns p with its evaluator path replaced by
// Problem.Evaluate over full Evaluate calls: every candidate evaluated in
// full, the reference the score path is held to.
func fullEvaluation(p Problem) Problem {
	e, obj := p.Evaluator, p.Objective
	p.Evaluator, p.Objective = nil, nil
	p.Evaluate = func(m sched.Mapping) (Cost, error) {
		ev, err := e.Evaluate(m)
		if err != nil {
			return Cost{}, err
		}
		sc := metrics.Score{TMSeconds: ev.TMSeconds, TotalRegBits: ev.TotalRegBits,
			Gamma: ev.Gamma, MeetsDeadline: ev.MeetsDeadline}
		return Cost{Value: obj(sc), Feasible: ev.MeetsDeadline}, nil
	}
	return p
}

// TestAnnealScoreMatchesFullEvaluation holds the walk on the score path to
// the same walk evaluating every candidate in full. The objectives read Γ,
// R, T_M and R·T_M, each with the proportional deadline penalty the mapper
// and the baselines put on an infeasible candidate. On MPEG-2 (pipelined
// T_M) and a §V graph behind ideal links and a mesh, at deadlines from
// loose to unreachable and from a round-robin scatter and a packed start,
// Anneal must return identical Results (Best, BestCost, Accepted, Improved)
// after as many evaluator calls. Walks must start both feasible and
// infeasible.
func TestAnnealScoreMatchesFullEvaluation(t *testing.T) {
	sv := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(30), 5)
	mesh := arch.MustNewPlatform(6, arch.ARM7Levels3(), arch.WithInterconnect(arch.Interconnect{
		Topology: arch.TopologyMesh, BandwidthBps: 4e9, HopLatencySec: 1e-4}))
	workloads := []struct {
		g      *taskgraph.Graph
		p      *arch.Platform
		iters  int
		d      float64
		levels []int
	}{
		{taskgraph.MPEG2(), arch.MustNewPlatform(4, arch.ARM7Levels3()), taskgraph.MPEG2Frames, taskgraph.MPEG2Deadline, []int{2, 2, 3, 2}},
		{sv, arch.MustNewPlatform(6, arch.ARM7Levels3()), 1, taskgraph.RandomDeadline(30) * 0.5, []int{1, 2, 2, 3, 1, 2}},
		{sv, mesh, 1, taskgraph.RandomDeadline(30) * 0.5, []int{1, 1, 2, 2, 3, 3}},
	}
	objectives := []struct {
		name string
		read func(metrics.Score) float64
	}{
		{"gamma", func(sc metrics.Score) float64 { return sc.Gamma }},
		{"reg", func(sc metrics.Score) float64 { return float64(sc.TotalRegBits) }},
		{"makespan", func(sc metrics.Score) float64 { return sc.TMSeconds }},
		{"regtime", func(sc metrics.Score) float64 { return float64(sc.TotalRegBits) * sc.TMSeconds }},
	}
	var starts [2]int // infeasible, feasible
	for _, w := range workloads {
		for _, frac := range []float64{4, 1, 0.6, 0.3} {
			d := w.d * frac
			e, err := metrics.NewEvaluator(w.g, w.p, faults.NewSERModel(faults.DefaultSER),
				metrics.Options{Iterations: w.iters, DeadlineSec: d})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Bind(w.levels); err != nil {
				t.Fatal(err)
			}
			cores := w.p.Cores()
			packed := make(sched.Mapping, w.g.N())
			for i := range packed {
				packed[i] = max(0, i-(w.g.N()-cores))
			}
			for k, obj := range objectives {
				read := obj.read
				objective := func(sc metrics.Score) float64 {
					v := read(sc)
					if !sc.MeetsDeadline {
						v *= 1 + 10*(sc.TMSeconds-d)/d
					}
					return v
				}
				for i, initial := range []sched.Mapping{sched.RoundRobin(w.g.N(), cores), packed} {
					start, err := e.Evaluate(initial)
					if err != nil {
						t.Fatal(err)
					}
					if start.MeetsDeadline {
						starts[1]++
					} else {
						starts[0]++
					}
					p := Problem{
						Cores:     cores,
						Initial:   initial,
						Moves:     300,
						Seed:      int64(k)*7 + int64(i),
						Evaluator: e,
						Objective: objective,
					}
					before := e.Stats()
					got, err := Anneal(p)
					if err != nil {
						t.Fatal(err)
					}
					mid := e.Stats()
					want, err := Anneal(fullEvaluation(p))
					if err != nil {
						t.Fatal(err)
					}
					where := fmt.Sprintf("%s on %d cores, %s, deadline %v, start %d (feasible %v)",
						w.g.Name(), cores, obj.name, d, i, start.MeetsDeadline)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: scored %+v, evaluated %+v", where, got, want)
					}
					if g, w := mid.Sub(before).Evaluations, e.Stats().Sub(mid).Evaluations; g != w {
						t.Fatalf("%s: %d evaluator calls scored, %d evaluated", where, g, w)
					}
				}
			}
		}
	}
	if starts[0] == 0 || starts[1] == 0 {
		t.Fatalf("walks started infeasible %d times and feasible %d times; both must occur", starts[0], starts[1])
	}
}
