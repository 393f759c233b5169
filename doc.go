// Package seadopt is a Go reproduction of "Soft Error-Aware Design
// Optimization of Low Power and Time-Constrained Embedded Systems"
// (Shafik, Al-Hashimi, Chakrabarty — DATE 2010).
//
// The library co-optimizes the dynamic power and the soft-error reliability
// (number of single-event upsets experienced, Γ) of an application task
// graph mapped onto a DVS-capable MPSoC — the paper's homogeneous ARM7
// platform, or a heterogeneous generalization with per-core processor types
// — subject to a real-time constraint:
//
//   - per-core voltage scaling is enumerated with the paper's nextScaling
//     algorithm (Fig. 5) from the all-slowest to the all-nominal operating
//     point;
//   - at each scaling, a two-stage soft error-aware task mapper
//     (InitialSEAMapping, Fig. 6, plus search-based OptimizedMapping,
//     Fig. 7) minimizes Γ = Σ_i R_i·T_i·λ_i subject to the deadline;
//   - the deadline-meeting design at the cheapest scaling wins.
//
// Everything the optimization sits on is implemented here too: the task
// graph model with register footprints (including the paper's MPEG-2
// decoder and random-graph workloads), the ARM7 MPSoC platform model, an
// event-driven list scheduler, a discrete-event cycle-level simulator (the
// SystemC stand-in), a Poisson SEU fault injector, and the simulated-
// annealing baselines the paper compares against.
//
// # Quick start
//
//	sys, err := seadopt.NewARM7System(seadopt.MPEG2(), 4, 3)
//	if err != nil { ... }
//	design, err := sys.Optimize(seadopt.OptimizeOptions{
//		SER:              1e-9,
//		DeadlineSec:      seadopt.MPEG2Deadline,
//		StreamIterations: seadopt.MPEG2Frames,
//	})
//	if err != nil { ... }
//	fmt.Println(design.Summary())
//
// # Concurrency and cancellation
//
// The Fig. 4 design loop is embarrassingly parallel across voltage-scaling
// combinations, and Optimize exploits that: combinations fan out over a
// bounded worker pool sized by OptimizeOptions.Parallelism (0 selects
// GOMAXPROCS, 1 runs sequentially). Each worker reuses one evaluator —
// schedule buffers, register-pressure bitsets, per-core metric rows — across
// the thousands of candidate mappings it scores. The mapper scores a
// candidate on T_M, R, Γ and the deadline verdict alone, and evaluates only
// the design it returns in full (per-core rows, utilization, eq. (5)
// power). Every combination derives its own seed from (Seed, combination
// index), so the chosen design is byte-identical at any parallelism:
//
//	design, err := sys.Optimize(seadopt.OptimizeOptions{
//		DeadlineSec: seadopt.MPEG2Deadline,
//		Parallelism: 8,                  // same Design as Parallelism: 1
//		Progress: func(p seadopt.ExploreProgress) {
//			log.Printf("%d/%d %v", p.Index+1, p.Total, p.Scaling)
//		},
//	})
//
// Progress callbacks arrive in enumeration order regardless of worker
// timing. OptimizeContext and OptimizeBaselineContext accept a
// context.Context and return ctx.Err() promptly on cancellation.
//
// # Exploration strategies
//
// The scaling enumeration is streamed, never materialized, and
// OptimizeOptions.Strategy selects the walk. The default,
// StrategyBranchAndBound, prunes combinations whose admissible best-case
// makespan already misses the deadline and skips combinations whose nominal
// power is dominated by a resolved feasible incumbent; because both rules
// discard only provably losing combinations — with a deterministic
// exhaustive fallback when no feasible design exists at all — it returns a
// byte-identical Design to StrategyExhaustive, the map-everything reference
// the paper tables are regenerated under. StrategySampled instead maps a
// seed-deterministic uniform sample of SampleBudget combinations: it is
// exact only in the trivial sense of being deterministic — its answer is
// the best design within the sample, with no optimality claim outside it —
// so reach for it only when the space is too large for the exact
// strategies, and never for regenerating paper results. Pruned/skipped
// combinations surface in ExploreProgress with their Pruned/Skipped flags
// set and a nil Design.
//
// # Objectives and Pareto exploration
//
// OptimizePareto replaces the scalar step-3 reduction with a multi-
// objective non-dominated fold: every deadline-feasible scaling
// combination contributes an objective vector — nominal dynamic power
// (eq. 5 at full utilization), multiprocessor execution time T_M, and the
// expected SEUs experienced Γ (eq. 3) — and the ordered Pareto frontier of
// those vectors is returned as a []*Design, sorted ascending by the active
// objectives in canonical order (power, then T_M, then Γ; excluded
// components are skipped) with the enumeration index as the final
// tie-break. OptimizeOptions.Objectives restricts
// dominance to a subset of the three components (ObjectivePower,
// ObjectiveMakespan, ObjectiveGamma; ParseParetoObjectives resolves
// "power,gamma"-style lists); the zero value selects all three.
//
// The frontier inherits the engine's determinism guarantees: byte-identical
// at any Parallelism and across StrategyBranchAndBound and
// StrategyExhaustive — under branch and bound, a combination is skipped
// only when its admissible lower-bound vector (exact nominal power, the
// metrics.Bounds makespan bound, zero Γ) is strictly dominated by a
// frontier member, which proves its realized vector could never join the
// frontier. Exact objective ties keep the lowest-enumeration-index design.
// When no design meets the deadline the frontier collapses to the scalar
// loop's deterministic "least infeasible" design. ExploreProgress carries
// the per-point view (FrontierSize, Admitted) for live consumers.
//
// # Heterogeneous platforms
//
// NewHeterogeneousPlatform (and ParsePlatformSpec, which reads the JSON
// platform-spec documents the CLI -platform flags and the seadoptd
// "platform" job field accept) builds MPSoCs whose cores carry their own
// DVS tables. The Fig. 5 enumeration generalizes to a mixed-radix space:
// each core draws its coefficient from its own table, and cores with
// physically equal tables remain interchangeable for the mapper — the
// paper's identical-core symmetry, applied per equivalence class. On a
// homogeneous platform the generalized walk is bit-identical to the legacy
// Fig. 5 sequence, and every determinism and strategy-equivalence guarantee
// above holds unchanged on mixed platforms (property-tested in
// internal/mapping). The paper's experiments stay pinned to the
// homogeneous Table-I platform; heterogeneous exploration is an extension,
// not a reproduction surface.
//
// # Contended interconnects
//
// By default communication is the paper's ideal fabric: a cross-core edge
// costs its communication cycles at the slower endpoint's clock and
// transfers never queue. WithInterconnect (or an "interconnect" block in
// the JSON platform spec) puts the cores behind a real fabric instead — a
// shared bus or an XY-routed 2D-mesh NoC with finite link bandwidth and
// per-hop latency. A message of cycles×BitsPerCycle bits reserves every
// link of its route cut-through style (staggered by the hop latency, held
// for bits/bandwidth seconds), and concurrent transfers sharing a link
// serialize deterministically. The scheduler, the DES simulator, the
// admissible makespan lower bound (which a fabric only ever tightens) and
// the exploration engine all charge the same model, so byte-identity
// across parallelism, strategies and sharding holds on contended
// platforms. Per-core busy-time billing stays the paper's eq. (7)
// both-endpoint model — the fabric shapes timing only — which keeps
// fabric-free platforms bit-identical to prior releases, designs and
// ProblemKeys alike.
//
// # SER sentinel
//
// OptimizeOptions.SER = 0 selects DefaultSER (the paper's 1e-9); a negative
// value selects a true zero soft error rate (Γ ≡ 0), which the 0-means-
// default sentinel cannot express. InjectFaults follows the same
// convention.
//
// # Serving
//
// ParseGraph ingests externally-authored task graphs (canonical JSON, TGFF,
// Graphviz DOT) with validation and deterministic defaulting, and Design
// marshals to a stable wire JSON via encoding/json. cmd/seadoptd serves the
// whole optimizer as a daemon — job queue, single-flight deduplication,
// content-addressed result cache, SSE progress — on these two surfaces; the
// server core lives in internal/service. A coordinator daemon shards
// eligible jobs over peer daemons (OptimizeShardedContext on its side,
// RunShard on theirs): each shard request carries a rank range and a fold,
// and the merged result is byte-identical to a single-node run. A ranked
// scalar solve whose ranked pass finds a probe-feasible scaling sends no
// shard: its main pass resolves on the coordinator.
//
// # Observability
//
// OptimizeOptions.Stats attaches a telemetry collector to any exploration:
// the run fills the pointed-to ExploreStats with per-phase wall clock
// (bounds, ranked seeding, enumeration, probe, mapper, fold), combination
// verdict counters, probe-cache hit rates, evaluator work counts,
// incumbent/frontier events and per-worker busy spans. Telemetry is
// observe-only — results and progress are byte-identical with it on or
// off, at any parallelism. The sharded entry points fill it with the
// coordinator's telemetry; shards run without a collector. The daemon
// serves the same snapshot per job (GET /v1/jobs/{id}/stats; 409 for a job
// whose shards ran), renders it as a perfetto-loadable worker
// timeline (GET /v1/jobs/{id}/trace, internal/trace), aggregates service
// latencies into Prometheus histograms on /metrics, and logs structured
// records via log/slog (-log-format, -log-level).
//
// The experiment harness regenerating every table and figure of the paper's
// evaluation lives in cmd/experiments; see EXPERIMENTS.md for the recorded
// paper-vs-measured comparison.
package seadopt
