package mapping

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/metrics"
	"seadopt/internal/pareto"
	"seadopt/internal/taskgraph"
	"seadopt/internal/vscale"
)

// shardEventFingerprint renders every field of a Progress event (Best
// included), so two streams compare byte-for-byte.
func shardEventFingerprint(pr Progress) string {
	return fmt.Sprintf("i=%d/%d c=%d s=%v pruned=%v skipped=%v d=%s best=%s fs=%d adm=%v",
		pr.Index, pr.Total, pr.Combination, pr.Scaling, pr.Pruned, pr.Skipped,
		designFingerprint(pr.Design), designFingerprint(pr.Best),
		pr.FrontierSize, pr.Admitted)
}

type shardWorkload struct {
	name     string
	g        *taskgraph.Graph
	p        *arch.Platform
	deadline float64
	iters    int
}

// shardWorkloads are the paper's three exemplars: the MPEG-2 decoder, the
// Fig. 8 worked example and a §V-style random graph.
func shardWorkloads(t *testing.T) []shardWorkload {
	t.Helper()
	return []shardWorkload{
		{"mpeg2", taskgraph.MPEG2(), plat(4), taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames},
		{"fig8", taskgraph.Fig8(), plat(3), taskgraph.Fig8Deadline, 1},
		{"randomV", taskgraph.MustRandom(taskgraph.DefaultRandomConfig(20), 3), plat(3), taskgraph.RandomDeadline(20), 1},
	}
}

type capturedRun struct {
	best     string
	per      []string
	frontier []string
	events   []string
}

func captureProgress(c *Config, events *[]string) {
	c.Progress = func(pr Progress) { *events = append(*events, shardEventFingerprint(pr)) }
}

// TestShardedScalarMatchesSingleNode is the tentpole property: the merged
// Design, perScaling list and Progress stream of a sharded run are
// byte-identical to the single-node run, across shard counts 1/2/4 and
// parallelism 1/4/GOMAXPROCS, for every exemplar workload.
func TestShardedScalarMatchesSingleNode(t *testing.T) {
	for _, w := range shardWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			base := cfg(w.deadline, w.iters)
			base.SearchMoves = 200
			base.DiscardPerScaling = false

			single := func() capturedRun {
				c := base
				var r capturedRun
				captureProgress(&c, &r.events)
				best, per, err := ExploreContext(context.Background(), w.g, w.p, SEAMapper(c), c)
				if err != nil {
					t.Fatalf("single-node: %v", err)
				}
				r.best = designFingerprint(best)
				for _, d := range per {
					r.per = append(r.per, designFingerprint(d))
				}
				return r
			}()

			for _, shards := range []int{1, 2, 4} {
				for _, par := range []int{1, 4, 0} {
					c := base
					c.Parallelism = par
					var r capturedRun
					captureProgress(&c, &r.events)
					best, per, err := ExploreSharded(context.Background(), w.g, w.p, SEAMapper(c), c,
						make([]ShardRunner, shards))
					if err != nil {
						t.Fatalf("shards=%d par=%d: %v", shards, par, err)
					}
					r.best = designFingerprint(best)
					for _, d := range per {
						r.per = append(r.per, designFingerprint(d))
					}
					assertRunsEqual(t, fmt.Sprintf("shards=%d par=%d", shards, par), single, r)
				}
			}
		})
	}
}

// TestShardedParetoMatchesSingleNode repeats the byte-identity property
// for the Pareto frontier fold.
func TestShardedParetoMatchesSingleNode(t *testing.T) {
	for _, w := range shardWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			base := cfg(w.deadline, w.iters)
			base.SearchMoves = 200

			single := func() capturedRun {
				c := base
				var r capturedRun
				captureProgress(&c, &r.events)
				frontier, err := ExploreParetoContext(context.Background(), w.g, w.p, SEAMapper(c), c)
				if err != nil {
					t.Fatalf("single-node: %v", err)
				}
				for _, d := range frontier {
					r.frontier = append(r.frontier, designFingerprint(d))
				}
				return r
			}()

			for _, shards := range []int{1, 2, 4} {
				for _, par := range []int{1, 4, 0} {
					c := base
					c.Parallelism = par
					var r capturedRun
					captureProgress(&c, &r.events)
					frontier, err := ExploreShardedPareto(context.Background(), w.g, w.p, SEAMapper(c), c,
						make([]ShardRunner, shards))
					if err != nil {
						t.Fatalf("shards=%d par=%d: %v", shards, par, err)
					}
					for _, d := range frontier {
						r.frontier = append(r.frontier, designFingerprint(d))
					}
					assertRunsEqual(t, fmt.Sprintf("shards=%d par=%d", shards, par), single, r)
				}
			}
		})
	}
}

func assertRunsEqual(t *testing.T, label string, want, got capturedRun) {
	t.Helper()
	if got.best != want.best {
		t.Errorf("%s: best diverged:\n  single: %s\n  sharded: %s", label, want.best, got.best)
	}
	assertStringsEqual(t, label+": perScaling", want.per, got.per)
	assertStringsEqual(t, label+": frontier", want.frontier, got.frontier)
	assertStringsEqual(t, label+": progress", want.events, got.events)
}

func assertStringsEqual(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d entries, want %d", label, len(got), len(want))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s[%d] diverged:\n  single: %s\n  sharded: %s", label, i, want[i], got[i])
			return
		}
	}
}

// TestShardedStrategiesAndSeeding covers the remaining coordinator paths:
// the exhaustive strategy (no pruning anywhere) and the ranked-seeded
// branch-and-bound (the seed travels to shards as a Pos -1 fact).
func TestShardedStrategiesAndSeeding(t *testing.T) {
	g := taskgraph.MPEG2()
	p := plat(4)
	for _, mode := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"exhaustive", func(c *Config) { c.Strategy = StrategyExhaustive }},
		{"ranked", func(c *Config) { c.Ranked = true }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			base := cfg(taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames)
			base.SearchMoves = 150
			base.DiscardPerScaling = false
			mode.mutate(&base)

			var wantEvents []string
			cs := base
			captureProgress(&cs, &wantEvents)
			wantBest, _, err := ExploreContext(context.Background(), g, p, SEAMapper(cs), cs)
			if err != nil {
				t.Fatal(err)
			}

			var gotEvents []string
			cd := base
			captureProgress(&cd, &gotEvents)
			gotBest, _, err := ExploreSharded(context.Background(), g, p, SEAMapper(cd), cd,
				make([]ShardRunner, 3))
			if err != nil {
				t.Fatal(err)
			}
			if designFingerprint(gotBest) != designFingerprint(wantBest) {
				t.Errorf("best diverged:\n  single: %s\n  sharded: %s",
					designFingerprint(wantBest), designFingerprint(gotBest))
			}
			assertStringsEqual(t, "progress", wantEvents, gotEvents)
		})
	}
}

// TestShardedImpossibleDeadline pins the degenerate all-infeasible
// fallback: both reductions must return the single-node "least
// infeasible" verdict.
func TestShardedImpossibleDeadline(t *testing.T) {
	g := taskgraph.MPEG2()
	p := plat(4)
	base := cfg(1e-9, taskgraph.MPEG2Frames)
	base.SearchMoves = 100

	wantBest, _, err := ExploreContext(context.Background(), g, p, SEAMapper(base), base)
	if err != nil {
		t.Fatal(err)
	}
	gotBest, _, err := ExploreSharded(context.Background(), g, p, SEAMapper(base), base,
		make([]ShardRunner, 2))
	if err != nil {
		t.Fatal(err)
	}
	if designFingerprint(gotBest) != designFingerprint(wantBest) {
		t.Errorf("scalar degenerate diverged:\n  single: %s\n  sharded: %s",
			designFingerprint(wantBest), designFingerprint(gotBest))
	}

	wantFrontier, err := ExploreParetoContext(context.Background(), g, p, SEAMapper(base), base)
	if err != nil {
		t.Fatal(err)
	}
	gotFrontier, err := ExploreShardedPareto(context.Background(), g, p, SEAMapper(base), base,
		make([]ShardRunner, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotFrontier) != len(wantFrontier) {
		t.Fatalf("degenerate frontier size %d, want %d", len(gotFrontier), len(wantFrontier))
	}
	for i := range wantFrontier {
		if designFingerprint(gotFrontier[i]) != designFingerprint(wantFrontier[i]) {
			t.Errorf("frontier[%d] diverged", i)
		}
	}
}

// TestShardRanges pins the partition arithmetic.
func TestShardRanges(t *testing.T) {
	for _, tc := range []struct {
		total, n int
		want     []ShardRange
	}{
		{10, 3, []ShardRange{{0, 4}, {4, 7}, {7, 10}}},
		{4, 4, []ShardRange{{0, 1}, {1, 2}, {2, 3}, {3, 4}}},
		{2, 4, []ShardRange{{0, 1}, {1, 2}, {2, 2}, {2, 2}}},
		{5, 1, []ShardRange{{0, 5}}},
	} {
		got := ShardRanges(tc.total, tc.n)
		if len(got) != len(tc.want) {
			t.Fatalf("ShardRanges(%d,%d) = %v", tc.total, tc.n, got)
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("ShardRanges(%d,%d)[%d] = %v, want %v", tc.total, tc.n, i, got[i], tc.want[i])
			}
		}
	}
}

// TestFactBoard pins dedup, Since cursors and subscriber replay.
func TestFactBoard(t *testing.T) {
	b := NewFactBoard()
	f1 := Fact{Pos: -1, Nominal: 2.5}
	f2 := Fact{Pos: 3, Nominal: 1.5}
	if !b.Publish(f1) {
		t.Fatal("first publish rejected")
	}
	if b.Publish(f1) {
		t.Fatal("duplicate accepted")
	}
	var seen []Fact
	b.Subscribe(func(f Fact) { seen = append(seen, f) })
	if len(seen) != 1 || seen[0] != f1 {
		t.Fatalf("replay = %v", seen)
	}
	if !b.Publish(f2) {
		t.Fatal("second publish rejected")
	}
	if len(seen) != 2 || seen[1] != f2 {
		t.Fatalf("live delivery = %v", seen)
	}
	facts, next := b.Since(0)
	if len(facts) != 2 || next != 2 {
		t.Fatalf("Since(0) = %v, %d", facts, next)
	}
	facts, next = b.Since(2)
	if len(facts) != 0 || next != 2 {
		t.Fatalf("Since(2) = %v, %d", facts, next)
	}
}

// shardVerdicts projects a shard result onto its timing-independent part:
// each position's verdict, plus the probe hints and mapping of folded
// positions. A skipped record's hints depend on whether its mapper ran
// before the incumbent reached the worker, so they are left out.
func shardVerdicts(res *ShardResult) []ShardRecord {
	out := make([]ShardRecord, len(res.Records))
	for i, r := range res.Records {
		switch {
		case r == nil:
			out[i] = ShardRecord{Idx: -1}
		case r.Skipped:
			out[i] = ShardRecord{Idx: r.Idx, Skipped: true}
		default:
			out[i] = *r
		}
	}
	return out
}

// shardSkips counts the skipped records of a shard result and, of those,
// the ones carrying a Mapping (the mapper ran before the skip was decided).
func shardSkips(res *ShardResult) (skipped, mapped int) {
	for _, r := range res.Records {
		if r != nil && r.Skipped {
			skipped++
			if r.Mapping != nil {
				mapped++
			}
		}
	}
	return skipped, mapped
}

// TestExploreShardAppliesOnlyEarlierFacts pins the shard-side fact rule the
// coordinator's byte-identity cannot see: the replay is authoritative, so a
// shard that ignored facts, or applied one derived inside its own range,
// would still merge to identical bytes and only do different work. On the
// upper half of the §V 20-task, 3-core space, a fact from a position before
// the range must add skips, and a fact at the range's first position must
// change no verdict.
func TestExploreShardAppliesOnlyEarlierFacts(t *testing.T) {
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(20), 3)
	p := plat(3)
	base := cfg(taskgraph.RandomDeadline(20), 1)
	base.SearchMoves = 200
	base.Parallelism = 1

	best, _, err := Explore(g, p, SEAMapper(base), base)
	if err != nil {
		t.Fatal(err)
	}
	cursor := metrics.NewBounds(g, p, base.Iterations).Cursor()
	if _, err := cursor.Advance(best.Scaling); err != nil {
		t.Fatal(err)
	}
	nominal := cursor.NominalPower()
	space, err := vscale.PlatformSpace(p)
	if err != nil {
		t.Fatal(err)
	}
	total := space.Count()
	lo := total / 2
	rng := ShardRange{Lo: lo, Hi: total}

	for _, leg := range []struct {
		name           string
		pareto         bool
		earlier, inner Fact
	}{
		{"scalar", false, Fact{Pos: lo - 1, Nominal: nominal}, Fact{Pos: lo, Nominal: nominal}},
		{"pareto", true, Fact{Pos: -1, Pareto: true, Nominal: nominal}, Fact{Pos: lo, Pareto: true, Nominal: nominal}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			c := base
			if leg.pareto {
				c.Objectives = pareto.ObjPower
			}
			run := func(facts ...Fact) *ShardResult {
				t.Helper()
				req := ShardRequest{Range: rng, Pareto: leg.pareto, InitialFacts: facts}
				res, err := ExploreShard(context.Background(), g, p, SEAMapper(c), c, req, NewFactBoard())
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			free := run()
			freeSkips, _ := shardSkips(free)

			earlier := run(leg.earlier)
			earlierSkips, earlierMapped := shardSkips(earlier)
			if earlierSkips <= freeSkips {
				t.Errorf("fact at position %d: %d skipped records, want more than the fact-free %d",
					leg.earlier.Pos, earlierSkips, freeSkips)
			}
			if !leg.pareto && earlierMapped != 0 {
				t.Errorf("fact at position %d: %d skipped records carry a Mapping, want 0 (the threshold stands from the first position)",
					leg.earlier.Pos, earlierMapped)
			}

			inner := run(leg.inner)
			if !reflect.DeepEqual(shardVerdicts(inner), shardVerdicts(free)) {
				innerSkips, _ := shardSkips(inner)
				t.Errorf("fact at the range's own position %d changed the records (%d skipped, fact-free %d)",
					leg.inner.Pos, innerSkips, freeSkips)
			}
			t.Logf("skipped: fact-free %d, earlier fact %d", freeSkips, earlierSkips)
		})
	}
}

// TestShardedWarmStartMatchesSingleNode extends sharded ≡ single-node to
// warm-started runs, the inputs the service shards for fingerprint-matching
// jobs: scalar WarmHints and Pareto WarmFrontier ghosts taken from a cold
// single-node run. The Design or frontier and the whole Progress stream
// must equal the warm single-node run at shard counts 1/2/4 and
// Parallelism 1/4. The Pareto leg runs power-only on the input of
// TestParetoBnBPrunesAndSkips, where the ghosts add skips.
func TestShardedWarmStartMatchesSingleNode(t *testing.T) {
	t.Run("scalar", func(t *testing.T) {
		for _, w := range shardWorkloads(t) {
			t.Run(w.name, func(t *testing.T) {
				base := cfg(w.deadline, w.iters)
				base.SearchMoves = 200
				cold, _, err := Explore(w.g, w.p, SEAMapper(base), base)
				if err != nil {
					t.Fatal(err)
				}
				space, err := vscale.PlatformSpace(w.p)
				if err != nil {
					t.Fatal(err)
				}
				rank, err := space.Rank(cold.Scaling)
				if err != nil {
					t.Fatal(err)
				}
				base.WarmHints = []int{rank}

				var want capturedRun
				cw := base
				captureProgress(&cw, &want.events)
				warm, _, err := Explore(w.g, w.p, SEAMapper(cw), cw)
				if err != nil {
					t.Fatal(err)
				}
				want.best = designFingerprint(warm)
				if want.best != designFingerprint(cold) {
					t.Fatalf("warm single-node Design diverged from cold:\n  cold: %s\n  warm: %s",
						designFingerprint(cold), want.best)
				}
				for _, shards := range []int{1, 2, 4} {
					for _, par := range []int{1, 4} {
						c := base
						c.Parallelism = par
						var got capturedRun
						captureProgress(&c, &got.events)
						best, _, err := ExploreSharded(context.Background(), w.g, w.p, SEAMapper(c), c,
							make([]ShardRunner, shards))
						if err != nil {
							t.Fatalf("shards=%d par=%d: %v", shards, par, err)
						}
						got.best = designFingerprint(best)
						assertRunsEqual(t, fmt.Sprintf("shards=%d par=%d", shards, par), want, got)
					}
				}
			})
		}
	})

	t.Run("pareto", func(t *testing.T) {
		g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(30), 8)
		p := plat(3)
		base := cfg(taskgraph.RandomDeadline(30)*0.5, 1)
		base.SearchMoves = 120
		base.Objectives = pareto.ObjPower

		skips := func(events []string) int {
			n := 0
			for _, e := range events {
				if strings.Contains(e, "skipped=true") {
					n++
				}
			}
			return n
		}
		var coldEvents []string
		cc := base
		captureProgress(&cc, &coldEvents)
		cold, err := ExplorePareto(g, p, SEAMapper(cc), cc)
		if err != nil {
			t.Fatal(err)
		}
		space, err := vscale.PlatformSpace(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range cold {
			rank, err := space.Rank(d.Scaling)
			if err != nil {
				t.Fatal(err)
			}
			base.WarmFrontier = append(base.WarmFrontier,
				WarmPoint{Combination: rank, Makespan: d.Eval.TMSeconds, Gamma: d.Eval.Gamma})
		}

		var want capturedRun
		cw := base
		captureProgress(&cw, &want.events)
		warm, err := ExplorePareto(g, p, SEAMapper(cw), cw)
		if err != nil {
			t.Fatal(err)
		}
		want.frontier = strings.Split(frontierFingerprint(warm), " | ")
		if frontierFingerprint(warm) != frontierFingerprint(cold) {
			t.Fatalf("warm single-node frontier diverged from cold:\n  cold: %s\n  warm: %s",
				frontierFingerprint(cold), frontierFingerprint(warm))
		}
		if skips(want.events) <= skips(coldEvents) {
			t.Fatalf("warm ghosts skipped %d combinations, cold %d: the ghosts never engaged",
				skips(want.events), skips(coldEvents))
		}
		for _, shards := range []int{1, 2, 4} {
			for _, par := range []int{1, 4} {
				c := base
				c.Parallelism = par
				var got capturedRun
				captureProgress(&c, &got.events)
				frontier, err := ExploreShardedPareto(context.Background(), g, p, SEAMapper(c), c,
					make([]ShardRunner, shards))
				if err != nil {
					t.Fatalf("shards=%d par=%d: %v", shards, par, err)
				}
				got.frontier = strings.Split(frontierFingerprint(frontier), " | ")
				assertRunsEqual(t, fmt.Sprintf("shards=%d par=%d", shards, par), want, got)
			}
		}
	})
}
