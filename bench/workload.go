package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"seadopt"
	"seadopt/internal/arch"
	"seadopt/internal/ingest"
	"seadopt/internal/taskgraph"
)

// The workloads. Each stresses a different part of the system; README.md
// records why each was chosen.
const (
	flagshipIdeal = "flagship_ideal"
	flagshipNoC   = "flagship_noc"
	serviceMixed  = "service_mixed"
	serviceHot    = "service_hot"
)

var workloadNames = []string{flagshipIdeal, flagshipNoC, serviceMixed, serviceHot}

// sizes fixes how much input a run generates and how often it repeats its
// set-up and restart measurements. The smoke test runs a tiny size; every
// corpus is a prefix of the full one, so the recorded digests cover both.
type sizes struct {
	flagshipProblems int // distinct flagship problems, solved once per round
	mixedGraphs      int // service_mixed graphs with recorded digests; a run submits a prefix
	hotGraphs        int // distinct service_hot graphs primed into the cache
	hotRounds        int // cache-hit rounds per client between coalesced rounds
	setups           int // set-ups per run; setup_s is their median
	restarts         int // daemon restarts per traced service run
	rungBatch        float64
}

// fullSize is what the benchmark runs. A 10 s run submits 128 of the 400
// service_mixed graphs with recorded digests (see unitsPerSecond), so runs
// of up to 31 s are covered. One restart replays the service_hot journal
// of a 10 s run (about 207 MB) in up to 26 s, so traced runs restart once.
var fullSize = sizes{
	flagshipProblems: 6,
	mixedGraphs:      400,
	hotGraphs:        16,
	hotRounds:        96,
	setups:           9,
	restarts:         1,
	rungBatch:        0.02,
}

// firstGraphSeed is where every corpus starts drawing §V random graphs: the
// graph seed of the 64-core flagship in BENCH_scale.json.
const firstGraphSeed = 11

// connectedGraphs draws n random graphs with cfg from consecutive seeds
// starting at firstGraphSeed, skipping the ones ingest rejects: some §V
// seeds produce disconnected graphs, which seadoptd answers with 400.
func connectedGraphs(cfg taskgraph.RandomConfig, n int) ([]*taskgraph.Graph, error) {
	var out []*taskgraph.Graph
	for seed := int64(firstGraphSeed); len(out) < n; seed++ {
		if seed > firstGraphSeed+int64(100*n) {
			return nil, fmt.Errorf("found only %d connected %d-task graphs", len(out), cfg.N)
		}
		g, err := taskgraph.Random(cfg, seed)
		if err != nil {
			return nil, err
		}
		if ingest.ValidateGraph(g) != nil {
			continue
		}
		out = append(out, g)
	}
	return out, nil
}

// permutation is the seed-driven order in which a run submits a corpus of n
// problems.
func permutation(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// --- flagship: in-process solves on a heterogeneous platform ---

// The flagship platform: 14 two-level efficiency cores and 2 four-level
// performance cores (15·10 = 150 scaling combinations), running 60-task §V
// graphs widened to 16-task layers. It keeps the 64-core flagship's regime
// (the ranked seed's probe climb is nearly all of the wall time, one mapper
// run per solve) at a cost of about half a second per solve.
const (
	flagshipCores = 16
	flagshipPerf  = 2
	flagshipTasks = 60
	flagshipWidth = 16
	searchMoves   = 200
)

// flagshipProblem is one solve: a graph on a platform under a deadline.
type flagshipProblem struct {
	key      string
	graph    *seadopt.Graph
	platform *seadopt.Platform
	deadline float64
	doc      []byte // the graph's canonical JSON, for the ingest rungs
}

// flagshipPlatform builds the flagship platform, behind an XY mesh when noc
// is set.
func flagshipPlatform(noc bool) (*seadopt.Platform, error) {
	types := []seadopt.ProcType{
		{Name: "eff", Levels: arch.ARM7Levels2()},
		{Name: "perf", Levels: arch.ARM7Levels4()},
	}
	coreTypes := make([]int, flagshipCores)
	for i := flagshipCores - flagshipPerf; i < flagshipCores; i++ {
		coreTypes[i] = 1
	}
	var opts []seadopt.PlatformOption
	if noc {
		opts = append(opts, seadopt.WithInterconnect(seadopt.Interconnect{
			Topology:      seadopt.TopologyMesh,
			BandwidthBps:  4e9,
			HopLatencySec: 1e-4,
		}))
	}
	return seadopt.NewHeterogeneousPlatform(types, coreTypes, opts...)
}

// flagshipCorpus builds the flagship problems. Each deadline is the T_M the
// mapper reaches with every core at its fastest level on the same platform,
// so only near-fastest scalings can meet it.
func flagshipCorpus(noc bool, n int) ([]flagshipProblem, error) {
	p, err := flagshipPlatform(noc)
	if err != nil {
		return nil, err
	}
	cfg := seadopt.DefaultRandomGraphConfig(flagshipTasks)
	cfg.MaxWidth = flagshipWidth
	graphs, err := connectedGraphs(cfg, n)
	if err != nil {
		return nil, err
	}
	out := make([]flagshipProblem, len(graphs))
	for i, g := range graphs {
		sys, err := seadopt.NewSystem(g, p)
		if err != nil {
			return nil, err
		}
		d, err := sys.MapAtScaling(p.MaxPowerScaling(), seadopt.OptimizeOptions{SearchMoves: searchMoves, Seed: 1})
		if err != nil {
			return nil, fmt.Errorf("deriving the deadline of %s: %w", g.Name(), err)
		}
		doc, err := json.Marshal(g)
		if err != nil {
			return nil, err
		}
		out[i] = flagshipProblem{key: g.Name(), graph: g, platform: p, deadline: d.Eval.TMSeconds, doc: doc}
	}
	return out, nil
}

// flagshipOptions are the solve options: branch-and-bound with the ranked
// seed pass, on two engine workers.
func flagshipOptions(prob flagshipProblem) seadopt.OptimizeOptions {
	return seadopt.OptimizeOptions{
		DeadlineSec: prob.deadline,
		SearchMoves: searchMoves,
		Seed:        1,
		Parallelism: 2,
		Strategy:    seadopt.StrategyBranchAndBound,
		Ranked:      true,
	}
}

// --- service workloads: jobs for seadoptd ---

// jobSpec is one job submission: its POST body and the problem the daemon
// will decode from it.
type jobSpec struct {
	key     string // golden digest key: graph, mode, deadline variant
	body    []byte // the POST /v1/jobs envelope
	doc     []byte // the graph document inside the envelope
	problem *ingest.Problem
}

// envelope is the POST /v1/jobs body.
type envelope struct {
	Format   string          `json:"format"`
	Graph    json.RawMessage `json:"graph"`
	Platform platformShort   `json:"platform"`
	Options  ingest.Options  `json:"options"`
}

type platformShort struct {
	Cores  int `json:"cores"`
	Levels int `json:"levels"`
}

// newJobSpec builds the envelope and the equivalent in-process problem.
func newJobSpec(key string, g *taskgraph.Graph, doc []byte, plat platformShort, opts ingest.Options) (jobSpec, error) {
	body, err := json.Marshal(envelope{Format: "json", Graph: doc, Platform: plat, Options: opts})
	if err != nil {
		return jobSpec{}, err
	}
	table, err := arch.ARM7LevelsFor(plat.Levels)
	if err != nil {
		return jobSpec{}, err
	}
	p, err := arch.NewPlatform(plat.Cores, table)
	if err != nil {
		return jobSpec{}, err
	}
	return jobSpec{key: key, body: body, doc: doc, problem: &ingest.Problem{Graph: g, Platform: p, Options: opts}}, nil
}

// service_mixed: 40-task graphs on 16 three-level cores at half the paper
// deadline. By graph index, 6 of 8 graphs are scalar jobs, one a Pareto job
// and one a 4-point deadline sweep.
const (
	mixedTasks        = 40
	mixedDeadlineFrac = 0.5
	warmDeadlineScale = 1.05
)

var mixedPlatform = platformShort{Cores: 16, Levels: 3}

// mixedBlock is how many consecutive service_mixed graphs form a block:
// one cycle of mixedMode. The clients meet between blocks, and a traced
// run alternates traced and untraced blocks, so every block submits the
// same mix.
const mixedBlock = 8

// mixedMode is the job mode of graph i, and of position i of a run. Each
// block opens with its costly jobs, the sweep and then the Pareto job, so
// that the two clients finish the block at about the same time.
func mixedMode(i int) string {
	switch i % mixedBlock {
	case 0:
		return ingest.ModeSweep
	case 1:
		return ingest.ModePareto
	}
	return ingest.ModeScalar
}

// mixedOrder is the seed's submission order over a corpus of n graphs, n a
// multiple of mixedBlock: position k runs a graph of mode mixedMode(k),
// drawn from that mode's graphs in a seed-shuffled order. Every seed thus
// submits the same graphs in the same sequence of modes, so the mix of
// cheap scalar jobs and costly Pareto and sweep jobs at any point of a run
// does not depend on the seed.
func mixedOrder(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	modes := []string{ingest.ModeScalar, ingest.ModePareto, ingest.ModeSweep}
	byMode := map[string][]int{}
	for i := 0; i < n; i++ {
		byMode[mixedMode(i)] = append(byMode[mixedMode(i)], i)
	}
	for _, m := range modes {
		g := byMode[m]
		rng.Shuffle(len(g), func(a, b int) { g[a], g[b] = g[b], g[a] })
	}
	order := make([]int, n)
	for k := range order {
		m := mixedMode(k)
		order[k], byMode[m] = byMode[m][0], byMode[m][1:]
	}
	return order
}

// mixedPair is one graph's cold job and its warm follow-up at a 5% looser
// deadline, which fingerprint-matches the cold job and warm-starts from it.
type mixedPair struct {
	cold, warm jobSpec
}

func mixedOptions(mode string, deadline float64) ingest.Options {
	o := ingest.Options{SearchMoves: searchMoves, Seed: 1, Mode: mode}
	if mode == ingest.ModeSweep {
		o.SweepDeadlines = []float64{deadline, deadline * 1.1, deadline * 1.2, deadline * 1.3}
	} else {
		o.DeadlineSec = deadline
	}
	return o
}

func mixedCorpus(n int) ([]mixedPair, error) {
	graphs, err := connectedGraphs(seadopt.DefaultRandomGraphConfig(mixedTasks), n)
	if err != nil {
		return nil, err
	}
	base := seadopt.RandomGraphDeadline(mixedTasks) * mixedDeadlineFrac
	out := make([]mixedPair, len(graphs))
	for i, g := range graphs {
		doc, err := json.Marshal(g)
		if err != nil {
			return nil, err
		}
		mode := mixedMode(i)
		cold, err := newJobSpec(g.Name()+"/"+mode+"/cold", g, doc, mixedPlatform, mixedOptions(mode, base))
		if err != nil {
			return nil, err
		}
		warm, err := newJobSpec(g.Name()+"/"+mode+"/warm", g, doc, mixedPlatform, mixedOptions(mode, base*warmDeadlineScale))
		if err != nil {
			return nil, err
		}
		out[i] = mixedPair{cold: cold, warm: warm}
	}
	return out, nil
}

// service_hot: 120-task graphs (about 40 KB of JSON each) on 4 three-level
// cores, primed into the result cache during set-up so the timed phase is
// almost all cache hits.
const (
	hotTasks        = 120
	hotDeadlineFrac = 0.5
	// hotGoldenCoalesced is how many coalesced problems the recorded digests
	// cover; later ones are checked only for agreement between the clients.
	hotGoldenCoalesced = 64
)

var hotPlatform = platformShort{Cores: 4, Levels: 3}

func hotCorpus(n int) ([]jobSpec, error) {
	graphs, err := connectedGraphs(seadopt.DefaultRandomGraphConfig(hotTasks), n)
	if err != nil {
		return nil, err
	}
	out := make([]jobSpec, len(graphs))
	for i, g := range graphs {
		doc, err := json.Marshal(g)
		if err != nil {
			return nil, err
		}
		opts := ingest.Options{SearchMoves: searchMoves, Seed: 1, DeadlineSec: hotDeadline()}
		if out[i], err = newJobSpec(g.Name()+"/primed", g, doc, hotPlatform, opts); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func hotDeadline() float64 { return seadopt.RandomGraphDeadline(hotTasks) * hotDeadlineFrac }

// hotCoalesced is the never-seen problem both clients submit together in
// block k: a primed graph at a deadline no other block uses. It shares the
// primed job's fingerprint, so the engine warm-starts it.
func hotCoalesced(corpus []jobSpec, k int) (jobSpec, error) {
	base := corpus[k%len(corpus)]
	factor := 1 + 0.001*float64(k+1)
	opts := base.problem.Options
	opts.DeadlineSec = hotDeadline() * factor
	key := fmt.Sprintf("%s/x%.3f", base.problem.Graph.Name(), factor)
	return newJobSpec(key, base.problem.Graph, base.doc, hotPlatform, opts)
}
