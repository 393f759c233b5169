package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"seadopt"
	"seadopt/internal/arch"
	"seadopt/internal/faults"
	"seadopt/internal/ingest"
	"seadopt/internal/mapping"
	"seadopt/internal/metrics"
	"seadopt/internal/sched"
	"seadopt/internal/service"
	"seadopt/internal/taskgraph"
)

// engineAgg sums the engine's own telemetry (OptimizeOptions.Stats, or the
// engine_stats a job's done event carries) over engine executions.
type engineAgg struct {
	execs                             int
	wall, ranked, probe, mapper, fold float64
	busy, capacity                    float64
	pruned, skipped, runs, spared     float64
	probeHits, probeLookups           float64
	makespans, evaluations            float64
}

func (a *engineAgg) add(st *seadopt.ExploreStats) {
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	a.execs++
	a.wall += sec(st.WallNanos)
	a.ranked += sec(st.Phases.RankedSeedNanos)
	a.probe += sec(st.Phases.ProbeNanos)
	a.mapper += sec(st.Phases.MapperNanos)
	a.fold += sec(st.Phases.FoldNanos)
	for _, wk := range st.Workers {
		a.busy += sec(wk.BusyNanos)
	}
	a.capacity += sec(st.WallNanos) * float64(st.Parallelism)
	a.pruned += float64(st.Combos.Pruned)
	a.skipped += float64(st.Combos.Skipped)
	a.runs += float64(st.Combos.MapperRuns)
	a.spared += float64(st.Combos.MapperSpared)
	a.probeHits += float64(st.ProbeCache.Hits)
	a.probeLookups += float64(st.ProbeCache.Hits + st.ProbeCache.Misses)
	a.makespans += float64(st.Eval.Makespans)
	a.evaluations += float64(st.Eval.Evaluations)
}

// per is a per-execution mean.
func (a *engineAgg) per(sum float64) float64 { return ratio(sum, float64(a.execs)) }

// rungInput is the graph and platform the rungs run on: the workload's own.
type rungInput struct {
	graph    *taskgraph.Graph
	platform *arch.Platform
	deadline float64
	doc      []byte          // the graph document as submitted
	problem  *ingest.Problem // service workloads: the job, for the store rung
}

// rungs holds per-call costs of single layers, timed directly.
type rungs struct {
	makespanUs, evaluateUs, deltaUs, boundsUs float64
	scheduleUs, initialSEAMs                  float64
	parseMs, keyMs                            float64
	submitOverheadUs                          float64
}

// timeRung returns fn's per-call wall time in seconds: the median of five
// batches, each sized to take about batch seconds.
func timeRung(tr *tracer, name string, batch float64, fn func() error) (float64, error) {
	start := time.Now()
	n := 0
	for time.Since(start).Seconds() < batch {
		if err := fn(); err != nil {
			return 0, fmt.Errorf("rung %s: %w", name, err)
		}
		n++
	}
	var per []float64
	for b := 0; b < 5; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return 0, fmt.Errorf("rung %s: %w", name, err)
			}
		}
		per = append(per, time.Since(t0).Seconds()/float64(n))
	}
	tr.record("rung "+name, "", 0, 0, start, time.Now())
	return median(per), nil
}

// measureRungs times each layer on the workload's graph and platform at
// the all-fastest scaling, with the mapping the paper's constructive mapper
// (Fig. 6) produces there.
func measureRungs(ctx context.Context, in rungInput, batch float64, tr *tracer, dir string) (rungs, error) {
	var r rungs
	ser := faults.NewSERModel(faults.DefaultSER)
	cfg := mapping.Config{SER: ser, DeadlineSec: in.deadline, Iterations: 1, Seed: 1}
	scaling := in.platform.MaxPowerScaling()
	var m sched.Mapping
	t, err := timeRung(tr, "mapping.InitialSEAMapping", batch, func() (err error) {
		m, err = mapping.InitialSEAMapping(in.graph, in.platform, scaling, cfg)
		return err
	})
	if err != nil {
		return r, err
	}
	r.initialSEAMs = t * 1e3

	ev, err := metrics.NewEvaluator(in.graph, in.platform, ser, metrics.Options{Iterations: 1, DeadlineSec: in.deadline})
	if err != nil {
		return r, err
	}
	if err := ev.Bind(scaling); err != nil {
		return r, err
	}
	if t, err = timeRung(tr, "metrics.Makespan", batch, func() error {
		_, _, err := ev.Makespan(m)
		return err
	}); err != nil {
		return r, err
	}
	r.makespanUs = t * 1e6
	if t, err = timeRung(tr, "metrics.Evaluate", batch, func() error {
		_, err := ev.Evaluate(m)
		return err
	}); err != nil {
		return r, err
	}
	r.evaluateUs = t * 1e6

	// EvaluateDelta moves the core hosting task 0 (always loaded) one level
	// slower and back, so every call re-schedules.
	prev := append([]int(nil), scaling...)
	next := append([]int(nil), scaling...)
	next[m[0]]++
	if err := ev.Bind(prev); err != nil {
		return r, err
	}
	if _, err := ev.Evaluate(m); err != nil {
		return r, err
	}
	if t, err = timeRung(tr, "metrics.EvaluateDelta", batch, func() error {
		_, err := ev.EvaluateDelta(prev, next)
		prev, next = next, prev
		return err
	}); err != nil {
		return r, err
	}
	r.deltaUs = t * 1e6

	bounds := metrics.NewBounds(in.graph, in.platform, 1)
	if t, err = timeRung(tr, "metrics.Bounds", batch, func() error {
		_, err := bounds.TMLowerBound(scaling)
		return err
	}); err != nil {
		return r, err
	}
	r.boundsUs = t * 1e6

	s := sched.NewScheduler(in.graph, in.platform)
	if err := s.Bind(scaling); err != nil {
		return r, err
	}
	if t, err = timeRung(tr, "sched.Schedule", batch, func() error {
		_, err := s.Schedule(m)
		return err
	}); err != nil {
		return r, err
	}
	r.scheduleUs = t * 1e6

	if t, err = timeRung(tr, "ingest.ParseBytes", batch, func() error {
		_, err := ingest.ParseBytes(ingest.FormatJSON, in.doc)
		return err
	}); err != nil {
		return r, err
	}
	r.parseMs = t * 1e3
	key := &ingest.Problem{Graph: in.graph, Platform: in.platform, Options: ingest.Options{DeadlineSec: in.deadline}}
	if in.problem != nil {
		key = in.problem
	}
	if t, err = timeRung(tr, "ingest.CanonicalEncoding+EncodingKey", batch, func() error {
		enc, err := key.CanonicalEncoding()
		if err == nil {
			_ = ingest.EncodingKey(enc)
		}
		return err
	}); err != nil {
		return r, err
	}
	r.keyMs = t * 1e3

	if in.problem != nil {
		if r.submitOverheadUs, err = submitOverhead(ctx, in.problem, batch, tr, dir); err != nil {
			return r, err
		}
	}
	return r, nil
}

// submitOverhead is the journal's cost on a cache-hit submission: the
// per-call time of an in-process Server.Submit with a durable store minus
// the same without one.
func submitOverhead(ctx context.Context, p *ingest.Problem, batch float64, tr *tracer, dir string) (float64, error) {
	per := func(storeDir string) (float64, error) {
		srv, err := service.NewServer(service.Config{Workers: 1, EngineParallelism: 1, StoreDir: storeDir})
		if err != nil {
			return 0, err
		}
		defer srv.Close(context.Background())
		if _, err := solveJob(ctx, srv, jobSpec{problem: p}); err != nil {
			return 0, err
		}
		name := "service.Submit (cache hit, no store)"
		if storeDir != "" {
			name = "service.Submit (cache hit, store)"
		}
		return timeRung(tr, name, batch, func() error {
			st, err := srv.Submit(p, 0)
			if err == nil && !st.CacheHit {
				err = fmt.Errorf("expected a cache hit, got %s", st.State)
			}
			return err
		})
	}
	storeDir := filepath.Join(dir, "rung-store")
	defer os.RemoveAll(storeDir)
	with, err := per(storeDir)
	if err != nil {
		return 0, err
	}
	without, err := per("")
	if err != nil {
		return 0, err
	}
	return (with - without) * 1e6, nil
}

// serviceLayer holds the per-layer numbers only the service workloads have.
type serviceLayer struct {
	submitP50, queueP50, queueP90, runP50, runP90 float64
	sseEventsPerJob, doneEventBytes               float64
	cacheHitRatio, coalescedFrac, engineExecFrac  float64
	journalBytesPerJob, replayMBps, restartS      float64
}

// layerMetrics assembles the per-layer set and prints the budget
// reconciliation: rung cost × call count next to the busy time the engine
// measured for the same layer. The per-layer times are as measured, not
// scaled to the reference host; host.ref_kernel_ms and host.steal_frac
// give the run's host speed.
func layerMetrics(w io.Writer, a *engineAgg, r rungs, svc serviceLayer, overhead float64, hs *hostSpeed) []metric {
	probeBusy, mapperBusy := a.per(a.probe), a.per(a.mapper)
	makespanCalls, evaluateCalls := a.per(a.makespans), a.per(a.evaluations)
	probeModel := makespanCalls * r.makespanUs / 1e6
	mapperModel := evaluateCalls * r.evaluateUs / 1e6
	fmt.Fprintf(w, "reconciliation (per engine execution, %d executions):\n", a.execs)
	fmt.Fprintf(w, "  probe:  %.0f Makespan calls × %.3f us = %.4f s  vs probe busy %.4f s  residual %.4f s\n",
		makespanCalls, r.makespanUs, probeModel, probeBusy, probeBusy-probeModel)
	fmt.Fprintf(w, "  mapper: %.0f Evaluate calls × %.3f us = %.4f s  vs mapper busy %.4f s  residual %.4f s\n",
		evaluateCalls, r.evaluateUs, mapperModel, mapperBusy, mapperBusy-mapperModel)
	fmt.Fprintf(w, "tracing overhead: %+.2f%% (median traced / untraced operation latency)\n", overhead*100)
	return []metric{
		{"mapping.wall_s", a.per(a.wall), "s"},
		{"mapping.ranked_seed_s", a.per(a.ranked), "s"},
		{"mapping.probe_busy_s", probeBusy, "s"},
		{"mapping.mapper_busy_s", mapperBusy, "s"},
		{"mapping.fold_s", a.per(a.fold), "s"},
		{"mapping.worker_busy_frac", ratio(a.busy, a.capacity), "ratio"},
		{"mapping.combos_pruned", a.per(a.pruned), "count"},
		{"mapping.combos_skipped", a.per(a.skipped), "count"},
		{"mapping.mapper_runs", a.per(a.runs), "count"},
		{"mapping.mapper_spared", a.per(a.spared), "count"},
		{"mapping.probe_cache_hit_ratio", ratio(a.probeHits, a.probeLookups), "ratio"},
		{"mapping.initial_sea_ms", r.initialSEAMs, "ms"},
		{"metrics.makespan_calls", makespanCalls, "count"},
		{"metrics.evaluate_calls", evaluateCalls, "count"},
		{"metrics.makespan_us", r.makespanUs, "us"},
		{"metrics.evaluate_us", r.evaluateUs, "us"},
		{"metrics.evaluate_delta_us", r.deltaUs, "us"},
		{"metrics.bounds_us", r.boundsUs, "us"},
		{"sched.schedule_us", r.scheduleUs, "us"},
		{"ingest.parse_ms", r.parseMs, "ms"},
		{"ingest.key_ms", r.keyMs, "ms"},
		{"service.submit_p50_s", svc.submitP50, "s"},
		{"service.queue_wait_p50_s", svc.queueP50, "s"},
		{"service.queue_wait_p90_s", svc.queueP90, "s"},
		{"service.run_p50_s", svc.runP50, "s"},
		{"service.run_p90_s", svc.runP90, "s"},
		{"service.sse_events_per_job", svc.sseEventsPerJob, "count"},
		{"service.done_event_bytes", svc.doneEventBytes, "B"},
		{"service.cache_hit_ratio", svc.cacheHitRatio, "ratio"},
		{"service.coalesced_frac", svc.coalescedFrac, "ratio"},
		{"service.engine_exec_frac", svc.engineExecFrac, "ratio"},
		{"store.journal_bytes_per_job", svc.journalBytesPerJob, "B"},
		{"store.replay_mb_per_s", svc.replayMBps, "MB/s"},
		{"store.restart_s", svc.restartS, "s"},
		{"store.submit_overhead_us", r.submitOverheadUs, "us"},
		{"recon.probe_residual_frac", ratio(probeBusy-probeModel, probeBusy), "ratio"},
		{"recon.mapper_residual_frac", ratio(mapperBusy-mapperModel, mapperBusy), "ratio"},
		{"trace.overhead_frac", overhead, "ratio"},
		{"host.ref_kernel_ms", hs.kernelS() * 1e3, "ms"},
		{"host.steal_frac", hs.stealFrac(), "ratio"},
	}
}
