package mapping

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/taskgraph"
)

// icnPlat is heteroPlat behind a contended fabric: the exploration engine's
// byte-identity properties must survive real communication costs, where
// makespans depend on link queuing, not just endpoint clocks.
func icnPlat(t *testing.T, fast, std int, ic arch.Interconnect) *arch.Platform {
	t.Helper()
	types := []arch.ProcType{
		{Name: "fast4", Levels: arch.ARM7Levels4()},
		{Name: "arm7", Levels: arch.ARM7Levels3()},
		{Name: "low2", Levels: arch.ARM7Levels2()},
	}
	var coreTypes []int
	for i := 0; i < fast; i++ {
		coreTypes = append(coreTypes, 0)
	}
	for i := 0; i < std; i++ {
		coreTypes = append(coreTypes, 1)
	}
	coreTypes = append(coreTypes, 2)
	p, err := arch.NewHeterogeneousPlatform(types, coreTypes, arch.WithInterconnect(ic))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

var (
	testBusFabric  = arch.Interconnect{Topology: arch.TopologyBus, BandwidthBps: 4e9, HopLatencySec: 1e-4}
	testMeshFabric = arch.Interconnect{Topology: arch.TopologyMesh, BandwidthBps: 4e9, HopLatencySec: 1e-4}
)

// TestInterconnectBnBMatchesExhaustive is the acceptance property of the
// fabric model: on contended platforms the default branch-and-bound
// strategy returns byte-identical designs to the exhaustive reference at
// Parallelism 1, 4 and GOMAXPROCS — the comm-aware bound must prune, and
// must not prune one feasible combination too many.
func TestInterconnectBnBMatchesExhaustive(t *testing.T) {
	workloads := []struct {
		name     string
		g        *taskgraph.Graph
		p        *arch.Platform
		deadline float64
		iters    int
	}{
		{"fig8-bus", taskgraph.Fig8(), icnPlat(t, 1, 1, testBusFabric), taskgraph.Fig8Deadline, 1},
		{"random20-mesh", taskgraph.MustRandom(taskgraph.DefaultRandomConfig(20), 3),
			icnPlat(t, 2, 1, testMeshFabric), taskgraph.RandomDeadline(20) * 0.5, 1},
	}
	for _, wl := range workloads {
		base := cfg(wl.deadline, wl.iters)
		base.SearchMoves = 120

		exh := base
		exh.Strategy = StrategyExhaustive
		rec := exh
		wantPer := recordDesigns(&rec)
		wantBest, err := Explore(wl.g, wl.p, SEAMapper(rec), rec)
		if err != nil {
			t.Fatalf("%s exhaustive: %v", wl.name, err)
		}
		want := designFingerprint(wantBest)

		// The fabric must be load-bearing: the same exploration on the same
		// cores without an interconnect lands on a different evaluation.
		ideal := heteroPlat(t, 1, 1)
		if wl.name == "random20-mesh" {
			ideal = heteroPlat(t, 2, 1)
		}
		idealBest, err := Explore(wl.g, ideal, SEAMapper(exh), exh)
		if err != nil {
			t.Fatalf("%s ideal: %v", wl.name, err)
		}
		if designFingerprint(idealBest) == want {
			t.Errorf("%s: contended and ideal fabrics produced identical designs — fabric not exercised", wl.name)
		}

		for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			bnb := base
			bnb.Strategy = StrategyBranchAndBound
			bnb.Parallelism = par
			var avoided int
			bnb.Progress = func(pr Progress) {
				if pr.Pruned || pr.Skipped {
					avoided++
				}
			}
			gotPer := recordDesigns(&bnb)
			gotBest, err := Explore(wl.g, wl.p, SEAMapper(bnb), bnb)
			if err != nil {
				t.Fatalf("%s bnb par=%d: %v", wl.name, par, err)
			}
			if got := designFingerprint(gotBest); got != want {
				t.Errorf("%s par=%d: designs diverged:\n  exhaustive: %s\n  bnb:        %s",
					wl.name, par, want, got)
			}
			assertDesignsMatch(t, fmt.Sprintf("%s par=%d", wl.name, par), wantPer.designs(t), gotPer.designs(t))
			if avoided == 0 {
				t.Errorf("%s par=%d: branch-and-bound avoided nothing on the contended platform", wl.name, par)
			}
		}
	}
}

// TestInterconnectParetoMatchesExhaustive repeats the byte-identity
// property for the Pareto frontier fold on a contended mesh.
func TestInterconnectParetoMatchesExhaustive(t *testing.T) {
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(20), 3)
	p := icnPlat(t, 1, 1, testMeshFabric)
	base := cfg(taskgraph.RandomDeadline(20), 1)
	base.SearchMoves = 120

	exh := base
	exh.Strategy = StrategyExhaustive
	wantFrontier, err := ExploreParetoContext(context.Background(), g, p, SEAMapper(exh), exh)
	if err != nil {
		t.Fatalf("exhaustive: %v", err)
	}
	want := frontierFingerprint(wantFrontier)
	assertSoundFrontier(t, "random20-mesh", p, wantFrontier, base.DeadlineSec)

	for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		bnb := base
		bnb.Strategy = StrategyBranchAndBound
		bnb.Parallelism = par
		gotFrontier, err := ExploreParetoContext(context.Background(), g, p, SEAMapper(bnb), bnb)
		if err != nil {
			t.Fatalf("bnb par=%d: %v", par, err)
		}
		if got := frontierFingerprint(gotFrontier); got != want {
			t.Errorf("par=%d: frontiers diverged:\n  exhaustive: %s\n  bnb:        %s", par, want, got)
		}
	}
}

// TestInterconnectShardedMatchesSingleNode: distributing a contended-fabric
// exploration over shards changes nothing — best design and Progress stream
// (each combination's design included) stay byte-identical across shard
// counts and parallelism, scalar and Pareto alike.
func TestInterconnectShardedMatchesSingleNode(t *testing.T) {
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(20), 3)
	p := icnPlat(t, 1, 1, testMeshFabric)
	base := cfg(taskgraph.RandomDeadline(20)*0.5, 1)
	base.SearchMoves = 120

	single := func() capturedRun {
		c := base
		var r capturedRun
		captureProgress(&c, &r.events)
		best, err := ExploreContext(context.Background(), g, p, SEAMapper(c), c)
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
			best, err := ExploreSharded(context.Background(), g, p, SEAMapper(c), c,
				make([]ShardRunner, shards))
			if err != nil {
				t.Fatalf("shards=%d par=%d: %v", shards, par, err)
			}
			r.best = designFingerprint(best)
			assertRunsEqual(t, fmt.Sprintf("shards=%d par=%d", shards, par), single, r)
		}
	}

	// The Pareto fold over shards, same property.
	pSingle := func() []string {
		c := base
		frontier, err := ExploreParetoContext(context.Background(), g, p, SEAMapper(c), c)
		if err != nil {
			t.Fatalf("single-node pareto: %v", err)
		}
		var out []string
		for _, d := range frontier {
			out = append(out, designFingerprint(d))
		}
		return out
	}()
	for _, shards := range []int{2, 4} {
		c := base
		frontier, err := ExploreShardedPareto(context.Background(), g, p, SEAMapper(c), c,
			make([]ShardRunner, shards))
		if err != nil {
			t.Fatalf("pareto shards=%d: %v", shards, err)
		}
		var got []string
		for _, d := range frontier {
			got = append(got, designFingerprint(d))
		}
		assertStringsEqual(t, fmt.Sprintf("pareto shards=%d", shards), pSingle, got)
	}
}
