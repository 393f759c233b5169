package mapping

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/metrics"
	"seadopt/internal/sched"
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

// capturedRun is one run's result and Progress stream; each event's
// fingerprint carries the combination's design.
type capturedRun struct {
	best     string
	frontier []string
	events   []string
}

func captureProgress(c *Config, events *[]string) {
	c.Progress = func(pr Progress) { *events = append(*events, shardEventFingerprint(pr)) }
}

// TestShardedScalarMatchesSingleNode is the tentpole property: the merged
// Design and Progress stream (each combination's design included) of a
// sharded run are byte-identical to the single-node run, across shard
// counts 1/2/4 and parallelism 1/4/GOMAXPROCS, for every exemplar workload.
func TestShardedScalarMatchesSingleNode(t *testing.T) {
	for _, w := range shardWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			base := cfg(w.deadline, w.iters)
			base.SearchMoves = 200

			single := func() capturedRun {
				c := base
				var r capturedRun
				captureProgress(&c, &r.events)
				best, err := ExploreContext(context.Background(), w.g, w.p, SEAMapper(c), c)
				if err != nil {
					t.Fatalf("single-node: %v", err)
				}
				r.best = designFingerprint(best)
				return r
			}()

			for _, shards := range []int{1, 2, 4} {
				for _, par := range []int{1, 4, 0} {
					c := base
					c.Parallelism = par
					var r capturedRun
					captureProgress(&c, &r.events)
					best, err := ExploreSharded(context.Background(), w.g, w.p, SEAMapper(c), c,
						make([]ShardRunner, shards))
					if err != nil {
						t.Fatalf("shards=%d par=%d: %v", shards, par, err)
					}
					r.best = designFingerprint(best)
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
// the exhaustive strategy (no pruning anywhere, no threshold) and the
// ranked-seeded branch-and-bound (every shard request carries the seed as
// its Threshold).
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
			mode.mutate(&base)
			// The threshold every shard request must carry: the ranked
			// pass's seed, none without one.
			var wantThreshold float64
			if base.Ranked {
				_, sc, err := setup(context.Background(), base, false)
				if err != nil {
					t.Fatal(err)
				}
				nominal, seeded, err := probeRankedStream(context.Background(), g, p, sc)
				if err != nil || !seeded {
					t.Fatalf("ranked seed: seeded=%v err=%v", seeded, err)
				}
				wantThreshold = nominal
			}

			var wantEvents []string
			cs := base
			captureProgress(&cs, &wantEvents)
			wantBest, err := ExploreContext(context.Background(), g, p, SEAMapper(cs), cs)
			if err != nil {
				t.Fatal(err)
			}

			var gotEvents []string
			cd := base
			captureProgress(&cd, &gotEvents)
			cd.Reuse = NewReuse() // shared with the shards, as nil runners share it
			var mu sync.Mutex
			var thresholds []float64
			embedded := InProcRunner(g, p, SEAMapper(cd), cd)
			runners := make([]ShardRunner, 3)
			for i := range runners {
				runners[i] = func(ctx context.Context, req ShardRequest) (*ShardResult, error) {
					mu.Lock()
					thresholds = append(thresholds, req.Threshold)
					mu.Unlock()
					return embedded(ctx, req)
				}
			}
			gotBest, err := ExploreSharded(context.Background(), g, p, SEAMapper(cd), cd, runners)
			if err != nil {
				t.Fatal(err)
			}
			if len(thresholds) != len(runners) {
				t.Errorf("%d shard requests, want %d", len(thresholds), len(runners))
			}
			for i, th := range thresholds {
				if th != wantThreshold {
					t.Errorf("shard request %d: threshold %v, want %v", i, th, wantThreshold)
				}
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

	wantBest, err := ExploreContext(context.Background(), g, p, SEAMapper(base), base)
	if err != nil {
		t.Fatal(err)
	}
	gotBest, err := ExploreSharded(context.Background(), g, p, SEAMapper(base), base,
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

// TestExploreShardAppliesOnlyEarlierFacts pins the shard-side use of the
// coordinator's threshold, which the coordinator's byte-identity cannot
// see: the merge decides every verdict itself, so a shard that ignored its
// threshold would still merge to identical bytes and only do more work. The
// only fact a shard applies is its request's Threshold, which the
// coordinator knew before position 0. On the upper half of the §V 20-task,
// 3-core space, the single-node design's nominal power as the threshold must
// save mapper runs, and since the threshold stands from the range's first
// position, no record whose nominal power lies beyond the threshold's
// tolerance band may carry a Mapping.
func TestExploreShardAppliesOnlyEarlierFacts(t *testing.T) {
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(20), 3)
	p := plat(3)
	base := cfg(taskgraph.RandomDeadline(20), 1)
	base.SearchMoves = 200
	base.Parallelism = 1

	best, err := Explore(g, p, SEAMapper(base), base)
	if err != nil {
		t.Fatal(err)
	}
	cursor := metrics.NewBounds(g, p, base.Iterations).Cursor()
	if _, err := cursor.Advance(best.Scaling); err != nil {
		t.Fatal(err)
	}
	threshold := cursor.NominalPower()
	space, err := vscale.PlatformSpace(p)
	if err != nil {
		t.Fatal(err)
	}
	total := space.Count()
	rng := ShardRange{Lo: total / 2, Hi: total}
	// nominal[j] is the nominal power of the range's j-th position.
	it, err := space.IterFrom(rng.Lo)
	if err != nil {
		t.Fatal(err)
	}
	nominal := make([]float64, rng.Hi-rng.Lo)
	for j := range nominal {
		scaling, _, _ := it.Next()
		if _, err := cursor.Advance(scaling); err != nil {
			t.Fatal(err)
		}
		nominal[j] = cursor.NominalPower()
	}

	t.Run("scalar", func(t *testing.T) {
		run := func(threshold float64) (*ShardResult, int64) {
			t.Helper()
			var mapped atomic.Int64
			req := ShardRequest{Range: rng, Threshold: threshold}
			res, err := ExploreShard(context.Background(), g, p, countingMapper(base, &mapped), base, req)
			if err != nil {
				t.Fatal(err)
			}
			return res, mapped.Load()
		}
		_, free := run(0)
		res, seeded := run(threshold)
		if seeded >= free {
			t.Errorf("threshold %v: %d mapper runs, want fewer than the unseeded %d", threshold, seeded, free)
		}
		for j, r := range res.Records {
			if r != nil && r.Mapping != nil && dominatedNominal(nominal[j], threshold) {
				t.Errorf("threshold %v: record %d (nominal %v, beyond the band) carries a Mapping, want none (the threshold stands from the first position)",
					threshold, r.Idx, nominal[j])
			}
		}
		t.Logf("mapper runs: unseeded %d, seeded %d", free, seeded)
	})
}

// TestExploreShardRefusesBadThreshold: a threshold is a probe-feasible
// combination's nominal power, so a shard refuses a negative or non-finite
// one rather than prune against it.
func TestExploreShardRefusesBadThreshold(t *testing.T) {
	g := taskgraph.Fig8()
	p := plat(3)
	base := cfg(taskgraph.Fig8Deadline, 1)
	base.SearchMoves = 100
	for _, th := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		req := ShardRequest{Range: ShardRange{Lo: 0, Hi: 1}, Threshold: th}
		res, err := ExploreShard(context.Background(), g, p, SEAMapper(base), base, req)
		if err == nil || !strings.Contains(err.Error(), "threshold") {
			t.Errorf("threshold %v: result %v, error %v; want an error naming the threshold", th, res, err)
		}
	}
}

// shardCountWorkloads are the mapper-count workloads: MPEG-2 and Fig. 8 on
// their paper platforms, and three §V 20-task and three §V 40-task graphs on
// 16 cores × 3 levels.
func shardCountWorkloads() []shardWorkload {
	p16 := plat(16)
	out := []shardWorkload{
		{"mpeg2", taskgraph.MPEG2(), plat(4), taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames},
		{"fig8", taskgraph.Fig8(), plat(3), taskgraph.Fig8Deadline, 1},
	}
	for _, n := range []int{20, 40} {
		for seed := int64(1); seed <= 3; seed++ {
			out = append(out, shardWorkload{fmt.Sprintf("random%d-%d", n, seed),
				taskgraph.MustRandom(taskgraph.DefaultRandomConfig(n), seed), p16, taskgraph.RandomDeadline(n), 1})
		}
	}
	return out
}

// countingMapper wraps SEAMapper(c), counting its calls in n.
func countingMapper(c Config, n *atomic.Int64) MapperFunc {
	inner := SEAMapper(c)
	return func(mc *MapContext) (sched.Mapping, *metrics.Evaluation, error) {
		n.Add(1)
		return inner(mc)
	}
}

// TestShardedRankedMapsNoMoreThanSingleNode: the ranked seed is the lowest
// nominal power of any probe-feasible combination and every shard starts
// from it, so at Parallelism 1 a sharded ranked run calls the mapper no more
// often than the single-node run.
func TestShardedRankedMapsNoMoreThanSingleNode(t *testing.T) {
	for _, w := range shardCountWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			base := cfg(w.deadline, w.iters)
			base.SearchMoves = 200
			base.Parallelism = 1
			base.Ranked = true
			var single atomic.Int64
			if _, err := ExploreContext(context.Background(), w.g, w.p, countingMapper(base, &single), base); err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 4} {
				var sharded atomic.Int64
				if _, err := ExploreSharded(context.Background(), w.g, w.p, countingMapper(base, &sharded), base,
					make([]ShardRunner, shards)); err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if sharded.Load() > single.Load() {
					t.Errorf("shards=%d: %d mapper runs, single-node %d", shards, sharded.Load(), single.Load())
				}
			}
		})
	}
}

// TestShardedWarmStartMatchesSingleNode extends sharded ≡ single-node to
// warm-started runs, the inputs the service shards for fingerprint-matching
// jobs: a scalar ranked walk over the reuse bundle a cold single-node run
// primed. The Design and the whole Progress stream must equal the warm
// single-node run at shard counts 1/2/4 and Parallelism 1/4.
func TestShardedWarmStartMatchesSingleNode(t *testing.T) {
	t.Run("scalar", func(t *testing.T) {
		for _, w := range shardWorkloads(t) {
			t.Run(w.name, func(t *testing.T) {
				base := cfg(w.deadline, w.iters)
				base.SearchMoves = 200
				base.Reuse = NewReuse()
				cold, err := Explore(w.g, w.p, SEAMapper(base), base)
				if err != nil {
					t.Fatal(err)
				}
				base.Ranked = true

				var want capturedRun
				cw := base
				captureProgress(&cw, &want.events)
				warm, err := Explore(w.g, w.p, SEAMapper(cw), cw)
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
						best, err := ExploreSharded(context.Background(), w.g, w.p, SEAMapper(c), c,
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
}

// TestCheckShardResult holds the shape check to the records an honest
// shard returns: the honest stream and its all-nil form pass, and each
// malformed shape — no result, one record too few or too many, a record at
// another index, a mapping of the wrong length, a core outside the platform
// on either side, a feasible probe claimed without a mapping — is refused.
func TestCheckShardResult(t *testing.T) {
	g, p := taskgraph.MPEG2(), plat(4)
	c := cfg(taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames)
	c.SearchMoves = 100
	rng := ShardRanges(15, 2)[1]
	honest, err := ExploreShard(context.Background(), g, p, SEAMapper(c), c, ShardRequest{Range: rng})
	if err != nil {
		t.Fatal(err)
	}
	mapped := -1
	for i, r := range honest.Records {
		if r != nil && r.Mapping != nil {
			mapped = i
			break
		}
	}
	if mapped < 0 {
		t.Fatal("honest stream holds no mapping")
	}
	corrupt := func(mutate func(res *ShardResult)) *ShardResult {
		res := &ShardResult{Records: make([]*ShardRecord, len(honest.Records))}
		for i, r := range honest.Records {
			if r != nil {
				cp := *r
				cp.Mapping = slices.Clone(r.Mapping)
				res.Records[i] = &cp
			}
		}
		mutate(res)
		return res
	}
	for _, tc := range []struct {
		name string
		res  *ShardResult
		ok   bool
	}{
		{"honest", honest, true},
		{"all nil", &ShardResult{Records: make([]*ShardRecord, rng.Hi-rng.Lo)}, true},
		{"no result", nil, false},
		{"one record short", corrupt(func(res *ShardResult) { res.Records = res.Records[1:] }), false},
		{"one record over", corrupt(func(res *ShardResult) { res.Records = append(res.Records, nil) }), false},
		{"wrong index", corrupt(func(res *ShardResult) { res.Records[mapped].Idx++ }), false},
		{"short mapping", corrupt(func(res *ShardResult) {
			m := res.Records[mapped].Mapping
			res.Records[mapped].Mapping = m[:len(m)-1]
		}), false},
		{"long mapping", corrupt(func(res *ShardResult) {
			res.Records[mapped].Mapping = append(res.Records[mapped].Mapping, 0)
		}), false},
		{"empty mapping", corrupt(func(res *ShardResult) { res.Records[mapped].Mapping = []int{} }), false},
		{"core past the platform", corrupt(func(res *ShardResult) { res.Records[mapped].Mapping[0] = p.Cores() }), false},
		{"negative core", corrupt(func(res *ShardResult) { res.Records[mapped].Mapping[g.N()-1] = -1 }), false},
		{"probed without a mapping", corrupt(func(res *ShardResult) {
			res.Records[mapped] = &ShardRecord{Idx: res.Records[mapped].Idx, Probed: true, ProbeKnown: true}
		}), false},
	} {
		if err := CheckShardResult(tc.res, rng, g, p); (err == nil) != tc.ok {
			t.Errorf("%s: CheckShardResult = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// FuzzShardReplay feeds the coordinator's merge untrusted peer records: one
// range of a 2-shard MPEG-2 or Fig. 8 run, plain or ranked branch-and-bound,
// is answered by a JSON-decoded ShardResult. Whatever the records claim,
// ExploreSharded must not panic, it may fail only on a result
// CheckShardResult refuses, and a Design it returns must carry the
// evaluation of its own mapping at its own scaling. The seeds are the honest
// stream of either range and its corruptions: a wrong record count, a wrong
// Idx, a mapping of the wrong length, an out-of-range core, Probed without a
// mapping, every position claimed probe-infeasible, and all-nil records.
func FuzzShardReplay(f *testing.F) {
	type replayWorkload struct {
		g *taskgraph.Graph
		p *arch.Platform
		c Config
	}
	workload := func(fig8, ranked bool) replayWorkload {
		w := replayWorkload{taskgraph.MPEG2(), plat(4), cfg(taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames)}
		if fig8 {
			w = replayWorkload{taskgraph.Fig8(), plat(3), cfg(taskgraph.Fig8Deadline, 1)}
		}
		w.c.SearchMoves = 100
		w.c.Ranked = ranked
		return w
	}
	// peerRange is the range the peer answers: the first or the second.
	peerRange := func(p *arch.Platform, first bool) ShardRange {
		space, err := vscale.PlatformSpace(p)
		if err != nil {
			f.Fatal(err)
		}
		ranges := ShardRanges(space.Count(), 2)
		if first {
			return ranges[0]
		}
		return ranges[1]
	}
	for _, fig8 := range []bool{false, true} {
		for _, ranked := range []bool{false, true} {
			for _, first := range []bool{false, true} {
				w := workload(fig8, ranked)
				req := ShardRequest{Range: peerRange(w.p, first)}
				if ranked {
					_, sc, err := setup(context.Background(), w.c, false)
					if err != nil {
						f.Fatal(err)
					}
					nominal, seeded, err := probeRankedStream(context.Background(), w.g, w.p, sc)
					if err != nil {
						f.Fatal(err)
					}
					if seeded {
						req.Threshold = nominal
					}
				}
				honest, err := ExploreShard(context.Background(), w.g, w.p, SEAMapper(w.c), w.c, req)
				if err != nil {
					f.Fatal(err)
				}
				mapped := slices.IndexFunc(honest.Records, func(r *ShardRecord) bool { return r != nil && r.Mapping != nil })
				add := func(mutate func(res *ShardResult)) {
					data, err := json.Marshal(honest)
					if err != nil {
						f.Fatal(err)
					}
					var res ShardResult
					if err := json.Unmarshal(data, &res); err != nil {
						f.Fatal(err)
					}
					mutate(&res)
					if data, err = json.Marshal(&res); err != nil {
						f.Fatal(err)
					}
					f.Add(fig8, ranked, first, data)
				}
				add(func(*ShardResult) {})
				add(func(res *ShardResult) { res.Records = res.Records[:len(res.Records)-1] })
				add(func(res *ShardResult) {
					lie, _ := infeasibleEverywhere(context.Background(), req)
					res.Records = lie.Records
				})
				add(func(res *ShardResult) { clear(res.Records) })
				if mapped < 0 {
					continue // a ranked range can resolve without the mapper
				}
				add(func(res *ShardResult) { res.Records[mapped].Idx++ })
				add(func(res *ShardResult) {
					m := res.Records[mapped].Mapping
					res.Records[mapped].Mapping = m[:len(m)-1]
				})
				add(func(res *ShardResult) { res.Records[mapped].Mapping[0] = w.p.Cores() })
				add(func(res *ShardResult) {
					*res.Records[mapped] = ShardRecord{Idx: res.Records[mapped].Idx, Probed: true, ProbeKnown: true}
				})
			}
		}
	}
	f.Fuzz(func(t *testing.T, fig8, ranked, first bool, data []byte) {
		var peer ShardResult
		if err := json.Unmarshal(data, &peer); err != nil {
			return
		}
		w := workload(fig8, ranked)
		answer := func(context.Context, ShardRequest) (*ShardResult, error) { return &peer, nil }
		runners := []ShardRunner{nil, answer}
		if first {
			runners = []ShardRunner{answer, nil}
		}
		best, err := ExploreSharded(context.Background(), w.g, w.p, SEAMapper(w.c), w.c, runners)
		if err != nil {
			if CheckShardResult(&peer, peerRange(w.p, first), w.g, w.p) == nil {
				t.Fatalf("a well-shaped peer result failed the merge: %v", err)
			}
			return
		}
		assertOwnEvaluation(t, "merge", w.g, w.p, w.c, best)
	})
}

// assertOwnEvaluation fails unless d is a design whose evaluation is a fresh
// evaluation of its own mapping at its own scaling under c.
func assertOwnEvaluation(t *testing.T, label string, g *taskgraph.Graph, p *arch.Platform, c Config, d *Design) {
	t.Helper()
	if d == nil {
		t.Fatalf("%s: neither a design nor an error", label)
	}
	fresh, err := metrics.Evaluate(g, p, d.Mapping, d.Scaling, c.SER,
		metrics.Options{Iterations: c.Iterations, DeadlineSec: c.DeadlineSec})
	if err != nil {
		t.Fatalf("%s: design %s does not evaluate: %v", label, designFingerprint(d), err)
	}
	if !reflect.DeepEqual(fresh, d.Eval) {
		t.Fatalf("%s: design %s carries an evaluation other than its own", label, designFingerprint(d))
	}
}

// infeasibleEverywhere is a lying runner: it claims every position of its
// range probe-infeasible and ships no mapping.
func infeasibleEverywhere(_ context.Context, req ShardRequest) (*ShardResult, error) {
	res := &ShardResult{Records: make([]*ShardRecord, req.Range.Hi-req.Range.Lo)}
	for j := range res.Records {
		res.Records[j] = &ShardRecord{Idx: req.Range.Lo + j, ProbeKnown: true}
	}
	return res, nil
}

// TestShardedEmptyRankedFold: a runner that claims probe-infeasible for
// every position of the range holding the ranked seed's combination leaves
// the seeded fold without a design, nothing bound-pruned. exploreScalar
// must then take the all-infeasible fallback rather than return a nil Design:
// the §V 20-task graph (seed 1) on 3 cores, ranked, with the liar on range 0
// of 2, 3 and 4 shards.
func TestShardedEmptyRankedFold(t *testing.T) {
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(20), 1)
	p := plat(3)
	c := cfg(taskgraph.RandomDeadline(20), 1)
	c.SearchMoves = 100
	c.Ranked = true
	for _, shards := range []int{2, 3, 4} {
		runners := make([]ShardRunner, shards)
		runners[0] = infeasibleEverywhere
		best, err := ExploreSharded(context.Background(), g, p, SEAMapper(c), c, runners)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		label := fmt.Sprintf("shards=%d", shards)
		assertOwnEvaluation(t, label, g, p, c, best)
		if !best.Eval.MeetsDeadline {
			t.Errorf("%s: design %s misses the deadline", label, designFingerprint(best))
		}
	}
}

// TestShardedLyingPeer pins the trust model of shard records (shard.go's
// header) on the §V 20-task graph (seed 3), 3 cores, plain
// branch-and-bound, 2 shards, with shard 0 answered by a peer.
//
//   - A Probed flag on a deadline-missing design contradicts the
//     coordinator's own evaluation of the mapping, so it changes nothing:
//     the design and the Progress stream equal the single-node run's.
//   - A probe-infeasible claim and a worse shipped mapping are trusted: on
//     the single-node answer's combination they can hide it or change the
//     answer, but the result is still a design whose evaluation is its own.
func TestShardedLyingPeer(t *testing.T) {
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(20), 3)
	p := plat(3)
	base := cfg(taskgraph.RandomDeadline(20), 1)
	base.SearchMoves = 100

	var want capturedRun
	answerIdx := -1
	cs := base
	cs.Progress = func(pr Progress) {
		want.events = append(want.events, shardEventFingerprint(pr))
		if pr.Design != nil && pr.Design == pr.Best {
			answerIdx = pr.Combination
		}
	}
	single, err := ExploreContext(context.Background(), g, p, SEAMapper(cs), cs)
	if err != nil {
		t.Fatal(err)
	}
	want.best = designFingerprint(single)
	space, err := vscale.PlatformSpace(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := ShardRanges(space.Count(), 2)[0]
	honest, err := ExploreShard(context.Background(), g, p, SEAMapper(base), base,
		ShardRequest{Range: rng, NoPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	// peer answers shard 0 with the honest exhaustive records, rewritten by
	// lie.
	peer := func(lie func(r *ShardRecord)) ShardRunner {
		return func(context.Context, ShardRequest) (*ShardResult, error) {
			res := &ShardResult{Records: make([]*ShardRecord, len(honest.Records))}
			for j, r := range honest.Records {
				cp := *r
				cp.Mapping = slices.Clone(r.Mapping)
				lie(&cp)
				res.Records[j] = &cp
			}
			return res, nil
		}
	}

	t.Run("probed flag", func(t *testing.T) {
		lies := 0
		lie := func(r *ShardRecord) {
			scaling, err := space.Unrank(r.Idx)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := metrics.Evaluate(g, p, r.Mapping, scaling, base.SER,
				metrics.Options{Iterations: base.Iterations, DeadlineSec: base.DeadlineSec})
			if err != nil {
				t.Fatal(err)
			}
			if !ev.MeetsDeadline {
				r.Probed, r.ProbeKnown = true, true
				lies++
			}
		}
		c := base
		var got capturedRun
		captureProgress(&c, &got.events)
		best, err := ExploreSharded(context.Background(), g, p, SEAMapper(c), c, []ShardRunner{peer(lie), nil})
		if err != nil {
			t.Fatal(err)
		}
		if lies == 0 {
			t.Fatal("shard 0 holds no deadline-missing design to lie about")
		}
		got.best = designFingerprint(best)
		assertRunsEqual(t, "probed flag", want, got)
	})

	if answerIdx < rng.Lo || answerIdx >= rng.Hi {
		t.Fatalf("the single-node answer %d lies outside shard 0's range %v", answerIdx, rng)
	}
	for _, leg := range []struct {
		name string
		lie  func(r *ShardRecord)
	}{
		{"hidden answer", func(r *ShardRecord) {
			if r.Idx == answerIdx {
				*r = ShardRecord{Idx: r.Idx, ProbeKnown: true}
			}
		}},
		{"worse mapping", func(r *ShardRecord) {
			if r.Idx == answerIdx {
				clear(r.Mapping) // every task on core 0
			}
		}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			best, err := ExploreSharded(context.Background(), g, p, SEAMapper(base), base,
				[]ShardRunner{peer(leg.lie), nil})
			if err != nil {
				t.Fatal(err)
			}
			assertOwnEvaluation(t, leg.name, g, p, base, best)
			t.Logf("single-node %s, lied to %s", want.best, designFingerprint(best))
		})
	}
}

// TestShardedCoordinatorMapsNothing: honest embedded shards ship a mapping
// for every position the coordinator's fold resolves with a design, and a
// position they resolved without one is decided when the fold reaches it,
// so the coordinator runs the mapper zero times. Plain, ranked and
// exhaustive scalar runs and Pareto runs, on shardCountWorkloads at 4 shards
// and Parallelism 1 and 4.
func TestShardedCoordinatorMapsNothing(t *testing.T) {
	modes := []struct {
		name   string
		pareto bool
		mutate func(*Config)
	}{
		{"plain", false, func(*Config) {}},
		{"ranked", false, func(c *Config) { c.Ranked = true }},
		{"exhaustive", false, func(c *Config) { c.Strategy = StrategyExhaustive }},
		{"pareto", true, func(*Config) {}},
	}
	for _, w := range shardCountWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			for _, m := range modes {
				for _, par := range []int{1, 4} {
					c := cfg(w.deadline, w.iters)
					c.SearchMoves = 200
					c.Parallelism = par
					c.Reuse = NewReuse()
					m.mutate(&c)
					embedded := InProcRunner(w.g, w.p, SEAMapper(c), c)
					runners := []ShardRunner{embedded, embedded, embedded, embedded}
					var mapped atomic.Int64
					var err error
					if m.pareto {
						_, err = ExploreShardedPareto(context.Background(), w.g, w.p, countingMapper(c, &mapped), c, runners)
					} else {
						_, err = ExploreSharded(context.Background(), w.g, w.p, countingMapper(c, &mapped), c, runners)
					}
					if err != nil {
						t.Fatalf("%s par=%d: %v", m.name, par, err)
					}
					if n := mapped.Load(); n != 0 {
						t.Errorf("%s par=%d: the coordinator ran the mapper %d times, want 0", m.name, par, n)
					}
				}
			}
		})
	}
}
