package mapping

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/metrics"
	"seadopt/internal/registers"
	"seadopt/internal/sched"
	"seadopt/internal/taskgraph"
)

// polishGammaReference is polishGamma as it ran before candidates were
// scored: every relocation evaluated in full.
func polishGammaReference(mc *MapContext, m sched.Mapping, budget int) (*metrics.Evaluation, error) {
	e := mc.Eval
	best, err := e.Evaluate(m)
	if err != nil {
		return nil, err
	}
	n := mc.Graph.N()
	cores := mc.Platform.Cores()
	bestM := m.Clone()
	bestGamma, bestTM, bestFeasible := best.Gamma, best.TMSeconds, best.MeetsDeadline
	finish := func() (*metrics.Evaluation, error) {
		ev, err := e.Evaluate(bestM)
		if err != nil {
			return nil, err
		}
		return ev.Clone(), nil
	}
	if cores < 2 || n < 2 {
		return finish()
	}
	cur := m.Clone()
	for budget > 0 {
		improved := false
		loads := cur.CoreLoads(cores)
	sweep:
		for t := 0; t < n; t++ {
			if n >= cores && loads[cur[t]] < 2 {
				continue
			}
			home := cur[t]
			for c := 0; c < cores; c++ {
				if c == home {
					continue
				}
				cur[t] = c
				ev, err := e.Evaluate(cur)
				if err != nil {
					return nil, err
				}
				budget--
				better := ev.MeetsDeadline && (!bestFeasible || ev.Gamma < bestGamma)
				if !better && !bestFeasible && ev.TMSeconds < bestTM {
					better = true
				}
				if better {
					bestGamma, bestTM, bestFeasible = ev.Gamma, ev.TMSeconds, ev.MeetsDeadline
					copy(bestM, cur)
					loads[home]--
					loads[c]++
					improved = true
					if budget <= 0 {
						return finish()
					}
					continue sweep
				}
				cur[t] = home
				if budget <= 0 {
					return finish()
				}
			}
		}
		if !improved {
			return finish()
		}
	}
	return finish()
}

// TestPolishGammaScoreMatchesFullEvaluation holds the Fig. 7 descent on
// the score path to the same descent evaluating every candidate in full:
// from the Fig. 6 mapping and from a round-robin scatter, at deadlines from
// loose to unreachable, polishGamma must return the same design after as
// many evaluator calls. The workloads are MPEG-2 (pipelined T_M) and §V
// graphs on homogeneous and heterogeneous platforms behind ideal links and
// a contended mesh, with deadlines scaled from one near the mapper's T_M
// floor. Descents must start both feasible and infeasible.
func TestPolishGammaScoreMatchesFullEvaluation(t *testing.T) {
	g30 := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(30), 5)
	g40 := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(40), 7)
	workloads := []struct {
		name  string
		g     *taskgraph.Graph
		p     *arch.Platform
		iters int
		d     float64
	}{
		{"mpeg2-4", taskgraph.MPEG2(), plat(4), taskgraph.MPEG2Frames, taskgraph.MPEG2Deadline},
		{"sv30-6", g30, plat(6), 1, taskgraph.RandomDeadline(30) * 0.5},
		{"sv40-hetero", g40, heteroPlat(t, 2, 4), 1, taskgraph.RandomDeadline(40) * 0.5},
		{"sv40-mesh", g40, icnPlat(t, 2, 4, testMeshFabric), 1, taskgraph.RandomDeadline(40) * 0.5},
	}
	rng := rand.New(rand.NewSource(17))
	var starts [2]int // infeasible, feasible
	for _, w := range workloads {
		for _, frac := range []float64{4, 1, 0.6, 0.3} {
			c := cfg(w.d*frac, w.iters)
			for s := 0; s < 2; s++ {
				scaling := make([]int, w.p.Cores())
				for i := range scaling {
					scaling[i] = 1 + rng.Intn(w.p.CoreNumLevels(i))
				}
				mc, err := NewMapContext(context.Background(), w.g, w.p, scaling, c)
				if err != nil {
					t.Fatal(err)
				}
				init, err := InitialSEAMapping(w.g, w.p, scaling, c)
				if err != nil {
					t.Fatal(err)
				}
				for i, initial := range []sched.Mapping{init, sched.RoundRobin(w.g.N(), w.p.Cores())} {
					where := fmt.Sprintf("%s deadline %v scaling %v start %d", w.name, c.DeadlineSec, scaling, i)
					start, err := mc.Eval.Evaluate(initial)
					if err != nil {
						t.Fatal(err)
					}
					if start.MeetsDeadline {
						starts[1]++
					} else {
						starts[0]++
					}
					before := mc.Eval.Stats()
					got, err := polishGamma(mc, initial, c, 150)
					if err != nil {
						t.Fatal(err)
					}
					mid := mc.Eval.Stats()
					want, err := polishGammaReference(mc, initial, 150)
					if err != nil {
						t.Fatal(err)
					}
					if evalFingerprint(got) != evalFingerprint(want) || !reflect.DeepEqual(got.Schedule.Mapping, want.Schedule.Mapping) {
						t.Fatalf("%s: polish scored %s %v, evaluated %s %v", where,
							evalFingerprint(got), got.Schedule.Mapping, evalFingerprint(want), want.Schedule.Mapping)
					}
					if g, w := mid.Sub(before).Evaluations, mc.Eval.Stats().Sub(mid).Evaluations; g != w {
						t.Fatalf("%s: polish made %d evaluator calls scored, %d evaluated", where, g, w)
					}
				}
			}
		}
	}
	if starts[0] == 0 || starts[1] == 0 {
		t.Fatalf("descents started infeasible %d times and feasible %d times; both must occur", starts[0], starts[1])
	}
}

// initialSEAMappingReference is the Fig. 6 stage over map-backed register
// sets, as it ran before footprints were compiled to bitmasks.
func initialSEAMappingReference(g *taskgraph.Graph, p *arch.Platform, scaling []int, cfg Config) (sched.Mapping, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := p.ValidScaling(scaling); err != nil {
		return nil, err
	}
	n := g.N()
	cores := p.Cores()
	m := make(sched.Mapping, n)
	for i := range m {
		m[i] = -1
	}
	freq := make([]float64, cores)
	lambda := make([]float64, cores)
	for c, s := range scaling {
		level := p.MustCoreLevel(c, s)
		freq[c] = level.FreqHz()
		lambda[c] = cfg.SER.RatePerSec(level.Vdd)
	}
	var queue []taskgraph.TaskID
	inQueue := make([]bool, n)
	pushQueue := func(t taskgraph.TaskID) {
		if m[t] < 0 && !inQueue[t] {
			inQueue[t] = true
			queue = append(queue, t)
		}
	}
	popQueue := func() (taskgraph.TaskID, bool) {
		for len(queue) > 0 {
			t := queue[0]
			queue = queue[1:]
			inQueue[t] = false
			if m[t] < 0 {
				return t, true
			}
		}
		return 0, false
	}
	for _, r := range g.Roots() {
		pushQueue(r)
	}
	unmapped := n
	assign := func(t taskgraph.TaskID, core int) {
		m[t] = core
		unmapped--
	}
	union := func(a, b registers.Set) registers.Set {
		out := make(registers.Set, len(a)+len(b))
		out.UnionWith(a)
		out.UnionWith(b)
		return out
	}
	deadline := cfg.DeadlineSec
	inv := g.Inventory()
	for core := 0; core < cores-1; core++ {
		t, ok := popQueue()
		if !ok {
			break
		}
		assign(t, core)
		coreSet := union(g.Task(t).Registers, nil)
		coreSec := float64(g.Task(t).Cycles) / freq[core]
		for {
			if deadline > 0 && coreSec >= deadline {
				break
			}
			if unmapped <= cores-1-core {
				break
			}
			type cand struct {
				id    taskgraph.TaskID
				score float64
				sec   float64
			}
			var l []cand
			for _, e := range g.Succs(t) {
				if m[e.To] >= 0 {
					continue
				}
				newBits := inv.SetBits(union(coreSet, g.Task(e.To).Registers))
				newSec := coreSec + float64(g.Task(e.To).Cycles)/freq[core]
				l = append(l, cand{id: e.To, score: float64(newBits) * newSec * lambda[core], sec: newSec})
			}
			sort.Slice(l, func(i, j int) bool {
				if l[i].score != l[j].score {
					return l[i].score < l[j].score
				}
				if l[i].sec != l[j].sec {
					return l[i].sec < l[j].sec
				}
				return l[i].id < l[j].id
			})
			if len(l) == 0 {
				if len(queue) >= 2 {
					queue[len(queue)-1], queue[len(queue)-2] = queue[len(queue)-2], queue[len(queue)-1]
				}
				next, ok := popQueue()
				if !ok {
					break
				}
				nextSec := coreSec + float64(g.Task(next).Cycles)/freq[core]
				if deadline > 0 && nextSec > deadline {
					pushQueue(next)
					break
				}
				assign(next, core)
				coreSet.UnionWith(g.Task(next).Registers)
				coreSec = nextSec
				t = next
				continue
			}
			best := l[0]
			if deadline > 0 && best.sec > deadline {
				for _, c := range l {
					pushQueue(c.id)
				}
				break
			}
			assign(best.id, core)
			coreSet.UnionWith(g.Task(best.id).Registers)
			coreSec = best.sec
			for _, c := range l[1:] {
				pushQueue(c.id)
			}
			t = best.id
		}
	}
	for t := 0; t < n; t++ {
		if m[t] < 0 {
			m[t] = cores - 1
		}
	}
	repairEmptyCores(g, m, cores)
	return m, nil
}

// TestInitialSEAMappingMatchesMapSets holds the bitmask Fig. 6 stage to
// the map-set one on MPEG-2, Fig. 8 and §V graphs of 8–120 tasks (their
// inventories run past one and several 64-bit mask words), on homogeneous
// and heterogeneous platforms of 2–16 cores, at random scalings, with no
// deadline and with loose to unreachable ones.
func TestInitialSEAMappingMatchesMapSets(t *testing.T) {
	graphs := []*taskgraph.Graph{taskgraph.MPEG2(), taskgraph.Fig8()}
	for i, n := range []int{8, 25, 40, 70, 120} {
		graphs = append(graphs, taskgraph.MustRandom(taskgraph.DefaultRandomConfig(n), int64(3+i)))
	}
	platforms := []*arch.Platform{plat(2), plat(4), plat(16), heteroPlat(t, 2, 3), heteroPlat(t, 4, 12)}
	rng := rand.New(rand.NewSource(5))
	wide := 0
	for _, g := range graphs {
		if g.Inventory().Len() > 64 {
			wide++
		}
		for _, p := range platforms {
			for _, frac := range []float64{0, 4, 1, 0.3, 0.05} {
				c := cfg(taskgraph.RandomDeadline(g.N())*frac, 1)
				for s := 0; s < 3; s++ {
					scaling := make([]int, p.Cores())
					for i := range scaling {
						scaling[i] = 1 + rng.Intn(p.CoreNumLevels(i))
					}
					got, err := InitialSEAMapping(g, p, scaling, c)
					if err != nil {
						t.Fatal(err)
					}
					want, err := initialSEAMappingReference(g, p, scaling, c)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s on %d cores, deadline %v, scaling %v: bitmask %v, map sets %v",
							g.Name(), p.Cores(), c.DeadlineSec, scaling, got, want)
					}
				}
			}
		}
	}
	if wide < 2 {
		t.Fatalf("only %d graphs have more than 64 registers", wide)
	}
}
