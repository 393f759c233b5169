// Command seadopt runs a single soft error-aware design optimization: it
// loads a workload (the paper's MPEG-2 decoder, the Fig. 8 example, or a
// random task graph), explores the voltage-scaling × task-mapping design
// space, and prints the chosen design with its power, register usage,
// execution time and expected/measured SEU counts.
//
// Examples:
//
//	seadopt -graph mpeg2 -cores 4
//	seadopt -graph random -tasks 60 -cores 6 -levels 3 -seed 7
//	seadopt -graph mpeg2 -cores 4 -baseline regtime   # the Exp:3 baseline
//	seadopt -graph mpeg2 -platform mixed.json         # heterogeneous MPSoC
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"seadopt"
	"seadopt/internal/buildinfo"
	"seadopt/internal/ingest"
	"seadopt/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI with its streams injected, so the golden-file tests
// drive it in-process. It returns the process exit code: 0 on success, 1 on
// errors, 2 when no deadline-meeting design exists.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("seadopt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphName = fs.String("graph", "mpeg2", "workload: mpeg2, fig8 or random")
		tasks     = fs.Int("tasks", 60, "task count for -graph random")
		cores     = fs.Int("cores", 4, "number of MPSoC processing cores")
		levels    = fs.Int("levels", 3, "DVS levels (2, 3 or 4)")
		platFile  = fs.String("platform", "", "JSON platform-spec file (heterogeneous MPSoCs; overrides -cores/-levels)")
		deadline  = fs.Float64("deadline", -1, "real-time constraint in seconds (-1 = workload default)")
		ser       = fs.Float64("ser", seadopt.DefaultSER, "soft error rate, SEU/bit/cycle (0 or negative = no soft errors)")
		moves     = fs.Int("moves", 0, "per-scaling search budget (0 = default)")
		parallel  = fs.Int("parallel", 0, "scaling-combination workers (0 = all cores, 1 = sequential; same result either way)")
		strategy  = fs.String("strategy", "", "exploration strategy: bnb (default; same answer as exhaustive, prunes provably irrelevant scalings), exhaustive, or sampled (approximate)")
		budget    = fs.Int("sample-budget", 0, "combinations the sampled strategy maps (0 = default)")
		ranked    = fs.Bool("ranked", false, "seed the bnb incumbent via a ranked (cheapest-nominal-first) pass before the stream; same answer, often much faster")
		dlSweep   = fs.String("deadline-sweep", "", "evaluate a lo:hi:step deadline sweep (seconds) over one shared reuse layer instead of a single run; honors -pareto/-objectives per point")
		sweepSpec = fs.String("sweep-spec", "", "JSON sweep-spec file {\"deadlines\":[..],\"point_mode\":\"scalar|pareto\",\"objective_sets\":[..],\"no_warm_start\":false}; overrides -deadline-sweep/-pareto/-objectives")
		coldSweep = fs.Bool("cold-sweep", false, "run scalar sweep points without the ranked seeding (same designs, byte-identical per-point progress to independent runs)")
		paretoRun = fs.Bool("pareto", false, "return the Pareto frontier of feasible designs instead of the single minimum-power one")
		objs      = fs.String("objectives", "", "pareto objectives, comma-separated subset of power,makespan,gamma (default all three)")
		progress  = fs.Bool("progress", false, "print one line per resolved scaling combination")
		seed      = fs.Int64("seed", 2010, "random seed")
		baseline  = fs.String("baseline", "", "run a soft error-unaware baseline instead: reg, makespan or regtime")
		gantt     = fs.Bool("gantt", false, "print the schedule as an ASCII Gantt chart")
		stats     = fs.Bool("stats", false, "print structural statistics of the workload graph and, after the run, the exploration telemetry (phase timings, prune/cache counters)")
		version   = fs.Bool("version", false, "print build version information and exit")
		traceOut  = fs.String("trace", "", "write a Chrome-tracing JSON of the design's simulation to this file")
		inject    = fs.Bool("inject", true, "run fault injection on the chosen design")
		jsonOut   = fs.Bool("json", false, "print the chosen design as wire JSON (the encoding seadoptd serves) instead of text")
		dumpGraph = fs.Bool("dump-graph", false, "print the workload graph as canonical JSON and exit (pipe into a seadoptd job)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "seadopt:", err)
		return 1
	}
	if *version {
		fmt.Fprintln(stdout, "seadopt", buildinfo.Read())
		return 0
	}
	// Human-facing narration (progress lines, trace and fault-injection
	// notices) moves to stderr when stdout is reserved for the
	// machine-readable -json payload.
	narration := stdout
	if *jsonOut {
		narration = stderr
	}

	g, dl, iters, err := loadWorkload(*graphName, *tasks, *seed)
	if err != nil {
		return fail(err)
	}
	if *dumpGraph {
		data, err := g.MarshalJSON()
		if err != nil {
			return fail(err)
		}
		stdout.Write(append(data, '\n'))
		return 0
	}
	if *deadline >= 0 {
		dl = *deadline
	}
	var sys *seadopt.System
	platformDesc := ""
	if *platFile != "" {
		f, err := os.Open(*platFile)
		if err != nil {
			return fail(err)
		}
		p, err := seadopt.ParsePlatformSpec(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
		if sys, err = seadopt.NewSystem(g, p); err != nil {
			return fail(err)
		}
		platformDesc = fmt.Sprintf("%d cores (platform spec %s)", p.Cores(), *platFile)
	} else {
		if sys, err = seadopt.NewARM7System(g, *cores, *levels); err != nil {
			return fail(err)
		}
		platformDesc = fmt.Sprintf("%d cores / %d DVS levels", *cores, *levels)
	}
	if *stats {
		// Narration, like progress: must not corrupt the -json payload.
		fmt.Fprintln(narration, sys.Stats())
		fmt.Fprintln(narration)
	}
	// The library's SER sentinel is 0-means-default; the flag's default is
	// already DefaultSER, so 0 at the CLI is an explicit request for a
	// fault-free model — map it to the library's negative-means-zero form.
	serOpt := *ser
	if serOpt <= 0 {
		serOpt = -1
	}
	strat, err := seadopt.ParseExploreStrategy(*strategy)
	if err != nil {
		return fail(err)
	}
	objectives, err := seadopt.ParseParetoObjectives(*objs)
	if err != nil {
		return fail(err)
	}
	if *objs != "" && !*paretoRun {
		return fail(fmt.Errorf("-objectives needs -pareto"))
	}
	// Under -stats the run also collects exploration telemetry; it is
	// observe-only, so the chosen design is identical either way.
	var exploreStats *seadopt.ExploreStats
	if *stats {
		exploreStats = new(seadopt.ExploreStats)
	}
	opts := seadopt.OptimizeOptions{
		SER:              serOpt,
		DeadlineSec:      dl,
		StreamIterations: iters,
		SearchMoves:      *moves,
		Seed:             *seed,
		Parallelism:      *parallel,
		Strategy:         strat,
		SampleBudget:     *budget,
		Ranked:           *ranked,
		Objectives:       objectives,
		Stats:            exploreStats,
	}
	if *progress {
		opts.Progress = func(p seadopt.ExploreProgress) {
			switch {
			case p.Pruned:
				fmt.Fprintf(narration, "  [%2d/%2d] scaling %v  pruned (best-case makespan misses deadline)\n",
					p.Index+1, p.Total, p.Scaling)
			case p.Skipped:
				fmt.Fprintf(narration, "  [%2d/%2d] scaling %v  skipped (dominated by incumbent)\n",
					p.Index+1, p.Total, p.Scaling)
			default:
				met := "infeasible"
				if p.Design.Eval.MeetsDeadline {
					met = "feasible"
				}
				fmt.Fprintf(narration, "  [%2d/%2d] scaling %v  P=%.3f mW  Γ=%.4g  %s\n",
					p.Index+1, p.Total, p.Scaling,
					p.Design.Eval.PowerW*1e3, p.Design.Eval.Gamma, met)
			}
		}
	}

	if *dlSweep != "" || *sweepSpec != "" {
		if *baseline != "" {
			return fail(fmt.Errorf("sweeps support only the proposed mapper, not -baseline %s", *baseline))
		}
		code, err := runSweep(sys, g.Name(), platformDesc, opts, sweepParams{
			rangeSpec: *dlSweep, specFile: *sweepSpec, pareto: *paretoRun,
			objectives: objectives, cold: *coldSweep, progress: *progress,
			jsonOut: *jsonOut,
		}, stdout, narration)
		if err != nil {
			return fail(err)
		}
		printExploreStats(narration, exploreStats)
		return code
	}

	if *paretoRun {
		if *baseline != "" {
			return fail(fmt.Errorf("-pareto supports only the proposed mapper, not -baseline %s", *baseline))
		}
		if !*jsonOut {
			fmt.Fprintf(stdout, "exploring the (%s) Pareto frontier of %s on %s (deadline %.3fs)...\n",
				objectives, g.Name(), platformDesc, dl)
		}
		frontier, err := sys.OptimizePareto(opts)
		if err != nil {
			return fail(err)
		}
		if *jsonOut {
			data, err := json.Marshal(frontier)
			if err != nil {
				return fail(err)
			}
			stdout.Write(append(data, '\n'))
		} else {
			fmt.Fprintf(stdout, "frontier: %d design(s)\n", len(frontier))
			for i, d := range frontier {
				fmt.Fprintf(stdout, "[%d] %s", i, d.Summary())
			}
		}
		printExploreStats(narration, exploreStats)
		if !frontier[0].Eval.MeetsDeadline {
			fmt.Fprintln(stderr, "warning: no deadline-meeting design exists for this configuration")
			return 2
		}
		return 0
	}

	var design *seadopt.Design
	switch *baseline {
	case "":
		if !*jsonOut {
			fmt.Fprintf(stdout, "optimizing %s on %s (proposed, deadline %.3fs)...\n",
				g.Name(), platformDesc, dl)
		}
		design, err = sys.Optimize(opts)
	case "reg":
		design, err = sys.OptimizeBaseline(seadopt.MinimizeRegisterUsage, opts)
	case "makespan":
		design, err = sys.OptimizeBaseline(seadopt.MinimizeMakespan, opts)
	case "regtime":
		design, err = sys.OptimizeBaseline(seadopt.MinimizeRegTime, opts)
	default:
		return fail(fmt.Errorf("unknown baseline %q (want reg, makespan or regtime)", *baseline))
	}
	if err != nil {
		return fail(err)
	}

	if *jsonOut {
		data, err := json.Marshal(design)
		if err != nil {
			return fail(err)
		}
		stdout.Write(append(data, '\n'))
	} else {
		fmt.Fprint(stdout, design.Summary())
		if *gantt {
			fmt.Fprint(stdout, design.Gantt(100))
		}
	}
	printExploreStats(narration, exploreStats)
	if *traceOut != "" {
		if err := writeTrace(*traceOut, sys, design, iters); err != nil {
			return fail(err)
		}
		fmt.Fprintf(narration, "wrote simulation trace to %s (open in chrome://tracing or ui.perfetto.dev)\n", *traceOut)
	}
	if *inject {
		measured, expected, err := sys.InjectFaults(design.Mapping, design.Scaling, iters, serOpt, *seed)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(narration, "fault injection: %d SEUs experienced (analytic expectation %.4g)\n", measured, expected)
	}
	if !design.Eval.MeetsDeadline {
		fmt.Fprintln(stderr, "warning: no deadline-meeting design exists for this configuration")
		return 2
	}
	return 0
}

// sweepParams collects the sweep-defining CLI inputs.
type sweepParams struct {
	rangeSpec  string // lo:hi:step, from -deadline-sweep
	specFile   string // JSON sweep-spec path, from -sweep-spec
	pareto     bool
	objectives seadopt.ParetoObjectives
	cold       bool
	progress   bool
	jsonOut    bool
}

// sweepSpecDoc is the -sweep-spec file format: the deadline points, the
// per-point reduction, optional Pareto objective sets to cross the deadlines
// with, and whether to disable the ranked seeding of scalar points.
type sweepSpecDoc struct {
	Deadlines     []float64 `json:"deadlines"`
	PointMode     string    `json:"point_mode"`
	ObjectiveSets []string  `json:"objective_sets"`
	NoWarmStart   bool      `json:"no_warm_start"`
}

// decodeSweepSpec parses a -sweep-spec document and checks it by the rule a
// mode=sweep job passes (ingest.Options.Validate): at least one deadline,
// none negative, a scalar or pareto point mode, and valid objective sets,
// only with pareto points. objSets is nil for scalar points and holds at
// least the default set for pareto points.
func decodeSweepSpec(data []byte) (deadlines []float64, objSets []seadopt.ParetoObjectives, cold bool, err error) {
	var doc sweepSpecDoc
	if err := ingest.DecodeStrict(data, &doc); err != nil {
		return nil, nil, false, err
	}
	o := ingest.Options{Mode: ingest.ModeSweep, SweepDeadlines: doc.Deadlines,
		SweepPointMode: doc.PointMode, SweepObjectiveSets: doc.ObjectiveSets}
	if err := o.Validate(); err != nil {
		return nil, nil, false, err
	}
	if pm, _ := ingest.ParseMode(doc.PointMode); pm == ingest.ModePareto {
		sets := doc.ObjectiveSets
		if len(sets) == 0 {
			sets = []string{""}
		}
		for _, set := range sets {
			obj, err := seadopt.ParseParetoObjectives(set)
			if err != nil {
				return nil, nil, false, err
			}
			objSets = append(objSets, obj)
		}
	}
	return doc.Deadlines, objSets, doc.NoWarmStart, nil
}

// parseDeadlineRange expands a lo:hi:step spec into an inclusive deadline
// list (hi is included when it lands on the grid, up to rounding).
func parseDeadlineRange(spec string) ([]float64, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("-deadline-sweep %q: want lo:hi:step", spec)
	}
	vals := make([]float64, 3)
	for i, s := range parts {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("-deadline-sweep %q: %q is not a number", spec, s)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("-deadline-sweep %q: %s %q is not finite", spec, [3]string{"lo", "hi", "step"}[i], s)
		}
		vals[i] = v
	}
	lo, hi, step := vals[0], vals[1], vals[2]
	if lo < 0 || hi < lo || step <= 0 {
		return nil, fmt.Errorf("-deadline-sweep %q: need 0 <= lo <= hi and step > 0", spec)
	}
	var out []float64
	for i := 0; ; i++ {
		d := lo + step*float64(i)
		if d > hi+step*1e-9 {
			break
		}
		if len(out) >= 10000 {
			return nil, fmt.Errorf("-deadline-sweep %q: more than 10000 points", spec)
		}
		out = append(out, d)
	}
	return out, nil
}

// runSweep evaluates a deadline sweep over one shared reuse layer: one
// bounds precompute, one probe-trajectory cache and one evaluator pool for
// every point, with each point's result byte-identical to an independent
// run at that deadline. Exit code 2 means no point admitted a
// deadline-meeting design.
func runSweep(sys *seadopt.System, graphName, platformDesc string, opts seadopt.OptimizeOptions,
	p sweepParams, stdout, narration io.Writer) (int, error) {
	var deadlines []float64
	var objSets []seadopt.ParetoObjectives // nil: scalar points
	cold := p.cold
	if p.specFile != "" {
		data, err := os.ReadFile(p.specFile)
		if err != nil {
			return 1, err
		}
		var specCold bool
		if deadlines, objSets, specCold, err = decodeSweepSpec(data); err != nil {
			return 1, fmt.Errorf("sweep spec %s: %w", p.specFile, err)
		}
		cold = cold || specCold
	} else {
		var err error
		deadlines, err = parseDeadlineRange(p.rangeSpec)
		if err != nil {
			return 1, err
		}
		if p.pareto {
			objSets = []seadopt.ParetoObjectives{p.objectives}
		}
	}
	var points []seadopt.SweepPoint
	for _, d := range deadlines {
		if objSets != nil {
			for _, o := range objSets {
				points = append(points, seadopt.SweepPoint{DeadlineSec: d, Pareto: true, Objectives: o})
			}
		} else {
			points = append(points, seadopt.SweepPoint{DeadlineSec: d})
		}
	}
	sopts := seadopt.SweepOptions{Options: opts, NoWarmStart: cold}
	if p.progress {
		sopts.PointProgress = func(point int, ev seadopt.ExploreProgress) {
			switch {
			case ev.Pruned:
				fmt.Fprintf(narration, "  [pt %d %2d/%2d] scaling %v  pruned\n",
					point+1, ev.Index+1, ev.Total, ev.Scaling)
			case ev.Skipped:
				fmt.Fprintf(narration, "  [pt %d %2d/%2d] scaling %v  skipped\n",
					point+1, ev.Index+1, ev.Total, ev.Scaling)
			default:
				fmt.Fprintf(narration, "  [pt %d %2d/%2d] scaling %v  P=%.3f mW  Γ=%.4g\n",
					point+1, ev.Index+1, ev.Total, ev.Scaling,
					ev.Design.Eval.PowerW*1e3, ev.Design.Eval.Gamma)
			}
		}
	}
	if !p.jsonOut {
		fmt.Fprintf(stdout, "sweeping %d point(s) (%d deadline(s)) of %s on %s...\n",
			len(points), len(deadlines), graphName, platformDesc)
	}
	results, err := sys.OptimizeSweep(points, sopts)
	if err != nil {
		return 1, err
	}
	if p.jsonOut {
		type pointJSON struct {
			Point       int               `json:"point"`
			DeadlineSec float64           `json:"deadline_sec"`
			Objectives  string            `json:"objectives,omitempty"`
			Design      *seadopt.Design   `json:"design,omitempty"`
			Frontier    []*seadopt.Design `json:"frontier,omitempty"`
		}
		out := make([]pointJSON, len(results))
		for i, r := range results {
			out[i] = pointJSON{Point: i + 1, DeadlineSec: r.Spec.DeadlineSec}
			if r.Spec.Pareto {
				out[i].Objectives = r.Spec.Objectives.String()
				out[i].Frontier = r.Frontier
			} else {
				out[i].Design = r.Design
			}
		}
		data, err := json.Marshal(out)
		if err != nil {
			return 1, err
		}
		stdout.Write(append(data, '\n'))
	} else {
		for i, r := range results {
			if r.Spec.Pareto {
				fmt.Fprintf(stdout, "[%d] deadline %.4fs (%s): frontier of %d design(s)\n",
					i+1, r.Spec.DeadlineSec, r.Spec.Objectives, len(r.Frontier))
				for j, d := range r.Frontier {
					fmt.Fprintf(stdout, "  [%d.%d] %s", i+1, j, d.Summary())
				}
			} else {
				fmt.Fprintf(stdout, "[%d] deadline %.4fs: %s", i+1, r.Spec.DeadlineSec, r.Design.Summary())
			}
		}
	}
	// Exit 2 only when NO point admits a deadline-meeting design — a sweep
	// deliberately probing past the feasibility knee is not an error.
	for _, r := range results {
		if r.Design != nil && r.Design.Eval.MeetsDeadline {
			return 0, nil
		}
		if len(r.Frontier) > 0 && r.Frontier[0].Eval.MeetsDeadline {
			return 0, nil
		}
	}
	fmt.Fprintln(narration, "warning: no deadline-meeting design exists at any sweep point")
	return 2, nil
}

func loadWorkload(name string, tasks int, seed int64) (g *seadopt.Graph, deadlineSec float64, streamIters int, err error) {
	switch name {
	case "mpeg2":
		return seadopt.MPEG2(), seadopt.MPEG2Deadline, seadopt.MPEG2Frames, nil
	case "fig8":
		return seadopt.Fig8(), 0.075, 1, nil
	case "random":
		g, err := seadopt.RandomGraph(seadopt.DefaultRandomGraphConfig(tasks), seed)
		if err != nil {
			return nil, 0, 0, err
		}
		return g, seadopt.RandomGraphDeadline(tasks), 1, nil
	default:
		return nil, 0, 0, fmt.Errorf("unknown graph %q (want mpeg2, fig8 or random)", name)
	}
}

// printExploreStats narrates the telemetry snapshot after a run (values are
// timing-dependent, so this is narration, never golden-compared output).
func printExploreStats(w io.Writer, st *seadopt.ExploreStats) {
	if st == nil || st.Passes == 0 {
		return
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	fmt.Fprintf(w, "exploration telemetry (%s, parallelism %d, %d pass(es)):\n",
		st.Strategy, st.Parallelism, st.Passes)
	fmt.Fprintf(w, "  wall %.1f ms  |  bounds %.1f  ranked %.1f  enum %.1f  probe %.1f  mapper %.1f  fold %.1f ms busy\n",
		ms(st.WallNanos), ms(st.Phases.BoundsNanos), ms(st.Phases.RankedSeedNanos),
		ms(st.Phases.EnumerationNanos), ms(st.Phases.ProbeNanos),
		ms(st.Phases.MapperNanos), ms(st.Phases.FoldNanos))
	fmt.Fprintf(w, "  combinations: %d total = %d evaluated + %d pruned + %d skipped (mapper ran %d, spared %d)\n",
		st.Combos.Total, st.Combos.Evaluated, st.Combos.Pruned, st.Combos.Skipped,
		st.Combos.MapperRuns, st.Combos.MapperSpared)
	fmt.Fprintf(w, "  probe cache: %d hits / %d misses (%.0f%% hit rate)  delta evals: %d patched / %d rescheduled\n",
		st.ProbeCache.Hits, st.ProbeCache.Misses, 100*st.ProbeCache.HitRate(),
		st.Eval.DeltaPatched, st.Eval.DeltaRescheduled)
	fmt.Fprintf(w, "  makespan calls: %d (%d tasks dispatched)  evaluations: %d\n",
		st.Eval.Makespans, st.Eval.MakespanDispatches, st.Eval.Evaluations)
	for _, ws := range st.Workers {
		fmt.Fprintf(w, "  worker %d: %d combinations, %.1f ms busy\n",
			ws.Worker, ws.Combinations, ms(ws.BusyNanos))
	}
}

// writeTrace simulates the design cycle-accurately and exports the run in
// the Chrome Trace Event format.
func writeTrace(path string, sys *seadopt.System, d *seadopt.Design, iters int) error {
	r, err := sys.Simulate(d.Mapping, d.Scaling, iters)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.WriteSimulation(f, r)
}
