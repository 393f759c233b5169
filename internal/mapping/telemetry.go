package mapping

import (
	"sync"
	"sync/atomic"
	"time"

	"seadopt/internal/metrics"
)

// Event and span caps: the collector must stay O(1) per combination and
// bounded in memory however large the enumeration is, so prune/skip event
// marks and per-worker spans stop accumulating at these limits (the
// summary counters keep counting; EventsDropped/Dropped record the loss).
// Incumbent, bound-tightening and admission events are rare and are always
// recorded.
const (
	maxTelemetryEvents      = 4096
	maxTelemetryWorkerSpans = 4096
)

// Exploration event kinds, in the order they can appear in a stream.
const (
	// EventIncumbent marks a scalar fold acceptance: the combination's
	// design became the incumbent best.
	EventIncumbent = "incumbent"
	// EventBound marks a tightening of the branch-and-bound dominance
	// threshold (the minimum probed-feasible nominal power seen so far).
	EventBound = "bound"
	// EventAdmitted marks a Pareto frontier admission.
	EventAdmitted = "admitted"
	// EventPruned marks a combination the admissible makespan bound proved
	// infeasible (the mapper never ran).
	EventPruned = "pruned"
	// EventSkipped marks a combination proven irrelevant to the fold's
	// result (dominance or probe-infeasibility skip).
	EventSkipped = "skipped"
)

// ExploreEvent is one timestamped exploration event. Index is the visit
// position (-1 for pre-stream events such as the ranked seed); Combination
// the stable enumeration index. Timestamps are nanoseconds since the run
// started and — unlike every other engine output — depend on wall clock,
// so they vary run to run while the event *sequence* stays deterministic.
type ExploreEvent struct {
	AtNanos      int64   `json:"at_ns"`
	Kind         string  `json:"kind"`
	Index        int     `json:"index"`
	Combination  int     `json:"combination"`
	NominalW     float64 `json:"nominal_power_w,omitempty"`
	FrontierSize int     `json:"frontier_size,omitempty"`
}

// WorkerSpan is one combination a worker processed: Kind is "map" when the
// mapper ran, "skip" when the combination resolved without it (probe-proved
// irrelevant or cancelled as dominated mid-flight), and "rank" for a
// feasibility probe of the incumbent-seeding pass (Config.Ranked), which
// runs on the same worker rows before the stream; a "rank" span runs from
// the worker's claim of the combination to its recorded verdict.
type WorkerSpan struct {
	StartNanos  int64  `json:"start_ns"`
	EndNanos    int64  `json:"end_ns"`
	Combination int    `json:"combination"`
	Kind        string `json:"kind"`
}

// WorkerStats aggregates one worker's activity. BusyNanos sums the span
// durations and Combinations counts the spans, of every kind and including
// spans beyond the recording cap; idle time is the run wall clock minus
// BusyNanos.
type WorkerStats struct {
	Worker       int          `json:"worker"`
	BusyNanos    int64        `json:"busy_ns"`
	Combinations int64        `json:"combinations"`
	Spans        []WorkerSpan `json:"spans,omitempty"`
	Dropped      int64        `json:"spans_dropped,omitempty"`
}

// PhaseStats is the per-component busy-clock breakdown of an exploration.
// The phases are independent clocks, not disjoint wall segments: probe and
// mapper time accrue concurrently on every worker, while bounds, ranked
// seed, enumeration and fold are timed on one goroutine. Their sum therefore
// exceeds the wall clock whenever Parallelism > 1.
type PhaseStats struct {
	// BoundsNanos is the admissible-bound precompute (metrics.NewBounds).
	BoundsNanos int64 `json:"bounds_ns"`
	// RankedSeedNanos is the wall time of the incumbent-seeding pass, the
	// Config.Ranked ascending-nominal walk. Its probes run on the worker
	// rows and also accrue to ProbeNanos.
	RankedSeedNanos int64 `json:"ranked_seed_ns"`
	// EnumerationNanos is the dispatcher's walk of the combination source:
	// cursor advances, bound pruning and dispatch-skip tests.
	EnumerationNanos int64 `json:"enumeration_ns"`
	// ProbeNanos is worker time in the shared feasibility probe.
	ProbeNanos int64 `json:"probe_ns"`
	// MapperNanos is worker time in the per-combination mapper search.
	MapperNanos int64 `json:"mapper_ns"`
	// FoldNanos is the ordered reduction: verdicts, fold acceptance and
	// Progress callbacks.
	FoldNanos int64 `json:"fold_ns"`
}

// ComboStats counts combination verdicts at fold time, where they are
// deterministic. Total accumulates across passes (the all-infeasible
// fallback re-folds the space), so Evaluated+Pruned+Skipped == Total.
type ComboStats struct {
	Total     int64 `json:"total"`
	Evaluated int64 `json:"evaluated"`
	Pruned    int64 `json:"pruned"`
	Skipped   int64 `json:"skipped"`
	// MapperRuns counts combinations whose mapper search actually ran;
	// MapperSpared counts probe-infeasible combinations whose run was
	// skipped as provably irrelevant.
	MapperRuns   int64 `json:"mapper_runs"`
	MapperSpared int64 `json:"mapper_spared"`
}

// ProbeCacheStats counts feasibility-probe lookups. Hit/miss totals can
// vary with worker timing (two workers may race to first-probe the same
// combination); every verdict-bearing output remains deterministic.
type ProbeCacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// HitRate is Hits/(Hits+Misses), 0 when no probes ran.
func (p ProbeCacheStats) HitRate() float64 {
	total := p.Hits + p.Misses
	if total == 0 {
		return 0
	}
	return float64(p.Hits) / float64(total)
}

// ExploreStats is a snapshot of a Telemetry collector: everything the
// observability layer knows about one exploration run. All durations are
// nanoseconds; all counters accumulate across the engine's internal passes
// (ranked seed, main stream, all-infeasible fallback).
type ExploreStats struct {
	Strategy    string            `json:"strategy"`
	Parallelism int               `json:"parallelism"`
	Passes      int               `json:"passes"`
	WallNanos   int64             `json:"wall_ns"`
	Phases      PhaseStats        `json:"phases"`
	Combos      ComboStats        `json:"combinations"`
	ProbeCache  ProbeCacheStats   `json:"probe_cache"`
	Eval        metrics.EvalStats `json:"eval"`
	// Events holds incumbent/bound/admission events (always recorded) and
	// up to maxTelemetryEvents prune/skip marks, in fold order.
	Events        []ExploreEvent `json:"events,omitempty"`
	EventsDropped int64          `json:"events_dropped,omitempty"`
	Workers       []WorkerStats  `json:"workers,omitempty"`
}

// Telemetry collects observe-only instrumentation from the explore core.
// Attach one via Config.Telemetry and snapshot it with Stats after the
// exploration returns. A collector accumulates across every internal pass
// of one logical exploration (ranked seeding, the main stream, the
// all-infeasible fallback); do not share one across unrelated runs.
//
// The collector is strictly an observer: it never feeds back into any
// engine decision, so the chosen Design, Pareto frontier and Progress
// stream are byte-identical with telemetry attached or not, at any
// Parallelism. Hot-path recording is allocation-free after warm-up:
// single-writer counters are plain fields ordered by the core's own
// happens-before edges (channel close / WaitGroup), cross-worker sums are
// atomics, and events/spans append into capped slices.
type Telemetry struct {
	startOnce sync.Once
	base      time.Time

	// Fold/setup-goroutine state (single writer at any moment; reads
	// happen after the run's happens-before edges).
	strategy    Strategy
	parallelism int
	passes      int
	boundsNanos int64
	rankedNanos int64
	foldNanos   int64
	combos      ComboStats
	events      []ExploreEvent
	eventsDrop  int64

	// Dispatcher-goroutine state.
	enumNanos int64

	// Cross-goroutine sums.
	probeNanos  atomic.Int64
	mapperNanos atomic.Int64
	probeHits   atomic.Int64
	probeMisses atomic.Int64
	mapperRuns  atomic.Int64
	mapperSkips atomic.Int64

	evalMu sync.Mutex
	eval   metrics.EvalStats

	workers []workerTel
}

type workerTel struct {
	busy   int64
	combos int64
	spans  []WorkerSpan
	drop   int64
}

// NewTelemetry returns an empty collector.
func NewTelemetry() *Telemetry { return &Telemetry{} }

// now returns nanoseconds since the collector's monotonic base, starting
// the clock on first use.
func (t *Telemetry) now() int64 {
	t.startOnce.Do(func() { t.base = time.Now() })
	return int64(time.Since(t.base))
}

// beginPass records one engine pass over the combination space; called on
// the exploring goroutine before workers start.
func (t *Telemetry) beginPass(strategy Strategy, parallelism, workers int) {
	t.now() // start the wall clock
	t.strategy = strategy
	t.parallelism = parallelism
	t.passes++
	t.growWorkers(workers)
}

// growWorkers makes sure worker rows 0..n-1 exist; called on the exploring
// goroutine before any goroutine that records on them starts.
func (t *Telemetry) growWorkers(n int) {
	if len(t.workers) < n {
		grown := make([]workerTel, n)
		copy(grown, t.workers)
		t.workers = grown
	}
}

func (t *Telemetry) addBounds(d int64) { t.boundsNanos += d }
func (t *Telemetry) addRanked(d int64) { t.rankedNanos += d }
func (t *Telemetry) addEnum(d int64)   { t.enumNanos += d }
func (t *Telemetry) addFold(d int64)   { t.foldNanos += d }

func (t *Telemetry) observeProbe(d int64, hit bool) {
	t.probeNanos.Add(d)
	if hit {
		t.probeHits.Add(1)
	} else {
		t.probeMisses.Add(1)
	}
}

func (t *Telemetry) observeMapper(d int64) {
	t.mapperNanos.Add(d)
	t.mapperRuns.Add(1)
}

func (t *Telemetry) mapperSpared() { t.mapperSkips.Add(1) }

func (t *Telemetry) addEvalStats(s metrics.EvalStats) {
	t.evalMu.Lock()
	t.eval.Merge(s)
	t.evalMu.Unlock()
}

// workerSpan records one processed combination on worker w's private row.
func (t *Telemetry) workerSpan(w int, startNs, endNs int64, combination int, kind string) {
	wt := &t.workers[w]
	wt.busy += endNs - startNs
	wt.combos++
	if len(wt.spans) >= maxTelemetryWorkerSpans {
		wt.drop++
		return
	}
	wt.spans = append(wt.spans, WorkerSpan{
		StartNanos: startNs, EndNanos: endNs, Combination: combination, Kind: kind,
	})
}

// comboVerdict records one fold-time verdict; kind is EventPruned,
// EventSkipped or "" for an evaluated combination. Runs on the fold
// goroutine, so the counter sequence is deterministic.
func (t *Telemetry) comboVerdict(kind string, index, combination int, nominal float64) {
	t.combos.Total++
	switch kind {
	case EventPruned:
		t.combos.Pruned++
	case EventSkipped:
		t.combos.Skipped++
	default:
		t.combos.Evaluated++
		return
	}
	if len(t.events) >= maxTelemetryEvents {
		t.eventsDrop++
		return
	}
	t.events = append(t.events, ExploreEvent{
		AtNanos: t.now(), Kind: kind, Index: index, Combination: combination, NominalW: nominal,
	})
}

// event records a rare always-kept event (incumbent, bound, admitted).
func (t *Telemetry) event(kind string, index, combination int, nominal float64, frontier int) {
	t.events = append(t.events, ExploreEvent{
		AtNanos: t.now(), Kind: kind, Index: index, Combination: combination,
		NominalW: nominal, FrontierSize: frontier,
	})
}

// Stats snapshots the collector. Call it only after the exploration has
// returned; the snapshot is deep-copied and safe to retain.
func (t *Telemetry) Stats() *ExploreStats {
	st := &ExploreStats{
		Strategy:    string(t.strategy.withDefault()),
		Parallelism: t.parallelism,
		Passes:      t.passes,
		WallNanos:   t.now(),
		Phases: PhaseStats{
			BoundsNanos:      t.boundsNanos,
			RankedSeedNanos:  t.rankedNanos,
			EnumerationNanos: t.enumNanos,
			ProbeNanos:       t.probeNanos.Load(),
			MapperNanos:      t.mapperNanos.Load(),
			FoldNanos:        t.foldNanos,
		},
		Combos: t.combos,
		ProbeCache: ProbeCacheStats{
			Hits:   t.probeHits.Load(),
			Misses: t.probeMisses.Load(),
		},
		EventsDropped: t.eventsDrop,
		Events:        append([]ExploreEvent(nil), t.events...),
	}
	st.Combos.MapperRuns = t.mapperRuns.Load()
	st.Combos.MapperSpared = t.mapperSkips.Load()
	t.evalMu.Lock()
	st.Eval = t.eval
	t.evalMu.Unlock()
	st.Workers = make([]WorkerStats, len(t.workers))
	for w := range t.workers {
		wt := &t.workers[w]
		st.Workers[w] = WorkerStats{
			Worker:       w,
			BusyNanos:    wt.busy,
			Combinations: wt.combos,
			Spans:        append([]WorkerSpan(nil), wt.spans...),
			Dropped:      wt.drop,
		}
	}
	return st
}
