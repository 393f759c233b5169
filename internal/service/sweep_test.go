package service

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/ingest"
	"seadopt/internal/taskgraph"
)

// sweepProblem is an MPEG-2 deadline sweep across the primary 4-core
// platform plus one extra 3-core sweep platform.
func sweepProblem(t *testing.T, deadlines []float64) *ingest.Problem {
	t.Helper()
	return &ingest.Problem{
		Graph:          taskgraph.MPEG2(),
		Platform:       arch.MustNewPlatform(4, arch.ARM7Levels3()),
		SweepPlatforms: []*arch.Platform{arch.MustNewPlatform(3, arch.ARM7Levels3())},
		Options: ingest.Options{
			Mode:             ingest.ModeSweep,
			SweepDeadlines:   deadlines,
			SweepPointMode:   "scalar",
			StreamIterations: taskgraph.MPEG2Frames,
			Seed:             2010,
		},
	}
}

// TestSweepJobEndToEnd submits one mode=sweep job — 3 deadlines × 2
// platforms — and checks the aggregate result against equivalent
// single-point submissions point by point: every sweep point's design must
// be byte-identical to what a cold standalone job over the same (graph,
// platform, deadline) serves, and the progress stream must tag every event
// with its 1-based point in nondecreasing order.
func TestSweepJobEndToEnd(t *testing.T) {
	d := taskgraph.MPEG2Deadline
	deadlines := []float64{d * 1.2, d, d * 0.8}
	s := newTestServer(t, Config{Workers: 1})
	st, err := s.Submit(sweepProblem(t, deadlines), 0)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, StateDone)

	var agg struct {
		Mode      string `json:"mode"`
		PointMode string `json:"point_mode"`
		Platforms int    `json:"platforms"`
		Size      int    `json:"size"`
		Points    []struct {
			Point       int             `json:"point"`
			Platform    int             `json:"platform"`
			DeadlineSec float64         `json:"deadline_sec"`
			Design      json.RawMessage `json:"design"`
		} `json:"points"`
	}
	if err := json.Unmarshal(final.Result, &agg); err != nil {
		t.Fatalf("aggregate result: %v\n%s", err, final.Result)
	}
	if agg.Mode != "sweep" || agg.PointMode != "scalar" || agg.Platforms != 2 || agg.Size != 6 || len(agg.Points) != 6 {
		t.Fatalf("aggregate envelope mode=%s point_mode=%s platforms=%d size=%d points=%d, want sweep/scalar/2/6/6",
			agg.Mode, agg.PointMode, agg.Platforms, agg.Size, len(agg.Points))
	}

	// Each point must serve the same design bytes as a cold single-point
	// job on a fresh server.
	cold := newTestServer(t, Config{Workers: 1})
	platforms := []*arch.Platform{arch.MustNewPlatform(4, arch.ARM7Levels3()), arch.MustNewPlatform(3, arch.ARM7Levels3())}
	for i, pt := range agg.Points {
		if pt.Point != i+1 {
			t.Fatalf("point %d numbered %d, want 1-based submission order", i, pt.Point)
		}
		single := &ingest.Problem{
			Graph:    taskgraph.MPEG2(),
			Platform: platforms[pt.Platform],
			Options: ingest.Options{
				DeadlineSec:      pt.DeadlineSec,
				StreamIterations: taskgraph.MPEG2Frames,
				Seed:             2010,
			},
		}
		sst, err := cold.Submit(single, 0)
		if err != nil {
			t.Fatal(err)
		}
		sfinal := waitState(t, cold, sst.ID, StateDone)
		if !bytes.Equal(pt.Design, sfinal.Result) {
			t.Errorf("sweep point %d (platform %d, deadline %v) diverged from the standalone job:\n  sweep: %s\n  solo:  %s",
				pt.Point, pt.Platform, pt.DeadlineSec, pt.Design, sfinal.Result)
		}
	}

	// The progress stream must tag every event with its 1-based point, and
	// points must stream in order.
	w, err := s.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	last, events := 0, 0
	for {
		ev, ok := w.Next(context.Background())
		if !ok {
			break
		}
		events++
		if ev.Point < 1 || ev.Point > 6 {
			t.Fatalf("sweep event carries point %d, want 1..6", ev.Point)
		}
		if ev.Point < last {
			t.Fatalf("point %d streamed after point %d", ev.Point, last)
		}
		last = ev.Point
	}
	if events == 0 {
		t.Fatal("sweep job streamed no progress events")
	}
	if last != 6 {
		t.Fatalf("last streamed point is %d, want 6", last)
	}
	if got := s.Metrics(); got.SweepPoints != 6 {
		t.Fatalf("SweepPoints metric = %d, want 6", got.SweepPoints)
	}
}

// TestSweepHTTPEndToEnd covers the wire surface of sweep mode: a JSON
// envelope with mode=sweep, Pareto point mode crossing two objective sets,
// and an extra entry in the "platforms" list; the SSE stream must tag every
// progress event with its sweep point and the aggregate result must carry
// one frontier per point.
func TestSweepHTTPEndToEnd(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 1})
	gj, err := taskgraph.MPEG2().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	env := map[string]any{
		"format":    "json",
		"graph":     json.RawMessage(gj),
		"platform":  map[string]int{"cores": 4, "levels": 3},
		"platforms": []any{map[string]int{"cores": 3, "levels": 3}},
		"options": map[string]any{
			"mode":                 "sweep",
			"sweep_point_mode":     "pareto",
			"sweep_deadlines":      []float64{taskgraph.MPEG2Deadline, taskgraph.MPEG2Deadline * 0.8},
			"sweep_objective_sets": []string{"", "power,makespan"},
			"stream_iterations":    taskgraph.MPEG2Frames,
			"seed":                 2010,
		},
	}
	body, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	st := postJob(t, ts.URL, body)
	final := waitJobHTTP(t, ts.URL, st.ID, StateDone)

	var agg struct {
		Mode      string `json:"mode"`
		PointMode string `json:"point_mode"`
		Platforms int    `json:"platforms"`
		Size      int    `json:"size"`
		Points    []struct {
			Point      int    `json:"point"`
			Objectives string `json:"objectives"`
			Size       int    `json:"size"`
		} `json:"points"`
	}
	if err := json.Unmarshal(final.Result, &agg); err != nil {
		t.Fatalf("aggregate result: %v\n%s", err, final.Result)
	}
	// 2 platforms × 2 deadlines × 2 objective sets.
	if agg.Mode != "sweep" || agg.PointMode != "pareto" || agg.Platforms != 2 || agg.Size != 8 {
		t.Fatalf("aggregate envelope mode=%s point_mode=%s platforms=%d size=%d, want sweep/pareto/2/8",
			agg.Mode, agg.PointMode, agg.Platforms, agg.Size)
	}
	for i, pt := range agg.Points {
		if pt.Point != i+1 {
			t.Fatalf("point %d numbered %d", i, pt.Point)
		}
		if pt.Size < 1 {
			t.Fatalf("point %d has an empty frontier", pt.Point)
		}
	}

	events, done := readSSE(t, ts.URL, st.ID)
	if len(events) == 0 {
		t.Fatal("no SSE progress events")
	}
	last := 0
	for _, ev := range events {
		if ev.Point < 1 || ev.Point > 8 {
			t.Fatalf("SSE event carries point %d, want 1..8", ev.Point)
		}
		if ev.Point < last {
			t.Fatalf("SSE point %d streamed after point %d", ev.Point, last)
		}
		last = ev.Point
	}
	if done.State != StateDone {
		t.Fatalf("terminal SSE state %s", done.State)
	}
	if got := metricValue(t, ts.URL, "seadoptd_sweep_points_total"); got != 8 {
		t.Fatalf("seadoptd_sweep_points_total = %d, want 8", got)
	}
}

// runJobs submits problems one after another to a fresh server, each after
// the previous one finished, and returns the last job's final status.
func runJobs(t *testing.T, problems ...*ingest.Problem) JobStatus {
	t.Helper()
	s := newTestServer(t, Config{Workers: 1})
	var last JobStatus
	for _, p := range problems {
		st, err := s.Submit(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		last = waitState(t, s, st.ID, StateDone)
	}
	return last
}

// probeMisses is the number of feasibility probes a finished job computed
// rather than read from the shared probe cache.
func probeMisses(t *testing.T, st JobStatus) int64 {
	t.Helper()
	if st.Stats == nil {
		t.Fatalf("job %s carries no engine stats", st.ID)
	}
	return st.Stats.ProbeCache.Misses
}

// TestWarmStartAcrossJobs submits two jobs that differ only in deadline:
// the second must find every probe it needs in the reuse bundle the first
// left behind, while serving exactly the bytes a fresh server computes
// cold.
func TestWarmStartAcrossJobs(t *testing.T) {
	second := mpeg2Problem(t, 2010)
	second.Options.DeadlineSec = taskgraph.MPEG2Deadline * 1.25
	warm := runJobs(t, mpeg2Problem(t, 2010), second)
	if n := probeMisses(t, warm); n != 0 {
		t.Errorf("the follow-up job computed %d probes, want all from the first job's bundle", n)
	}
	cold := runJobs(t, second)
	if n := probeMisses(t, cold); n == 0 {
		t.Error("a cold job computed no probe")
	}
	if !bytes.Equal(warm.Result, cold.Result) {
		t.Errorf("warm-started result differs from cold result:\n  warm: %s\n  cold: %s", warm.Result, cold.Result)
	}
}

// TestWarmStartFromSweep: a mode=sweep job probes through the server's
// shared reuse bundle, so a later single-point submission of the same
// workload computes no probe — serving exactly the bytes a fresh server
// computes cold.
func TestWarmStartFromSweep(t *testing.T) {
	d := taskgraph.MPEG2Deadline
	warm := runJobs(t, sweepProblem(t, []float64{d * 1.2, d}), mpeg2Problem(t, 2010))
	if n := probeMisses(t, warm); n != 0 {
		t.Errorf("the job after a sweep over the same workload computed %d probes, want 0", n)
	}
	cold := runJobs(t, mpeg2Problem(t, 2010))
	if n := probeMisses(t, cold); n == 0 {
		t.Error("a cold job computed no probe")
	}
	if !bytes.Equal(warm.Result, cold.Result) {
		t.Errorf("sweep-warm-started result differs from cold result:\n  warm: %s\n  cold: %s", warm.Result, cold.Result)
	}
}

// TestCacheEvictionMetrics fills a 1-entry result cache with two distinct
// jobs and checks the eviction counter and the /metrics series riding on
// it.
func TestCacheEvictionMetrics(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheEntries: 1})
	for _, seed := range []int64{1, 2} {
		st, err := s.Submit(mpeg2Problem(t, seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, st.ID, StateDone)
	}
	m := s.Metrics()
	if m.CacheEvictions != 1 {
		t.Fatalf("CacheEvictions = %d after overflowing a 1-entry cache, want 1", m.CacheEvictions)
	}
	var buf bytes.Buffer
	renderMetrics(&buf, m)
	out := buf.String()
	for _, want := range []string{
		"seadoptd_result_cache_size 1",
		"seadoptd_result_cache_evictions_total 1",
		"seadoptd_sweep_points_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if err := LintMetrics(buf.Bytes()); err != nil {
		t.Errorf("metrics lint: %v", err)
	}
}
