package service

import (
	"bytes"
	"container/heap"
	"context"
	"errors"
	"log/slog"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"seadopt/internal/arch"
	"seadopt/internal/ingest"
	"seadopt/internal/taskgraph"
)

// mpeg2Problem is the canonical fast workload: ~15 scaling combinations on
// 4 cores / 3 levels.
func mpeg2Problem(t *testing.T, seed int64) *ingest.Problem {
	t.Helper()
	return &ingest.Problem{
		Graph:    taskgraph.MPEG2(),
		Platform: arch.MustNewPlatform(4, arch.ARM7Levels3()),
		Options: ingest.Options{
			DeadlineSec:      taskgraph.MPEG2Deadline,
			StreamIterations: taskgraph.MPEG2Frames,
			Seed:             seed,
		},
	}
}

// slowProblem is a workload big enough to still be running while a test
// cancels it or queues behind it.
func slowProblem(t *testing.T) *ingest.Problem {
	t.Helper()
	return &ingest.Problem{
		Graph:    taskgraph.MustRandom(taskgraph.DefaultRandomConfig(60), 3),
		Platform: arch.MustNewPlatform(6, arch.ARM7Levels3()),
		Options: ingest.Options{
			DeadlineSec: taskgraph.RandomDeadline(60),
			SearchMoves: 500_000,
			Seed:        3,
		},
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = s.Close(ctx)
	})
	return s
}

// waitState polls until the job reaches a terminal state (or the wanted
// one) and returns the snapshot.
func waitState(t testing.TB, s *Server, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, err := s.Job(id)
		if err != nil {
			t.Fatalf("Job(%s): %v", id, err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSubmitRunsToDone(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	st, err := s.Submit(mpeg2Problem(t, 2010), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh submission in state %s", st.State)
	}
	final := waitState(t, s, st.ID, StateDone)
	if len(final.Result) == 0 {
		t.Fatal("done job has no result payload")
	}
	if !strings.Contains(string(final.Result), "\"scaling\"") {
		t.Fatalf("result does not look like a wire design: %s", final.Result)
	}
	if final.Summary == "" {
		t.Fatal("done job has no summary")
	}
	if final.Completed == 0 || final.Completed != final.Total {
		t.Fatalf("progress %d/%d after completion", final.Completed, final.Total)
	}
	if final.FinishedAt.IsZero() {
		t.Fatal("done job has no finish timestamp")
	}
}

// TestSingleFlightAndCache is the acceptance criterion at the core level:
// 8 concurrent submitters of one problem, one engine execution, identical
// result bytes, and a cache hit on a later resubmission.
func TestSingleFlightAndCache(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	const clients = 8
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := s.Submit(mpeg2Problem(t, 2010), 0)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	var result []byte
	for _, id := range ids {
		st := waitState(t, s, id, StateDone)
		if result == nil {
			result = st.Result
		} else if !bytes.Equal(result, st.Result) {
			t.Fatalf("job %s returned different bytes than its siblings", id)
		}
	}
	m := s.Metrics()
	if m.EngineExecutions != 1 {
		t.Fatalf("engine ran %d times for %d identical submissions, want exactly 1", m.EngineExecutions, clients)
	}
	if m.CacheHits+m.Coalesced != clients-1 {
		t.Fatalf("hits %d + coalesced %d != %d deduplicated submissions", m.CacheHits, m.Coalesced, clients-1)
	}

	// Resubmission after completion is a pure cache hit: done immediately.
	st, err := s.Submit(mpeg2Problem(t, 2010), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || !st.CacheHit {
		t.Fatalf("resubmission state %s cacheHit %v, want done from cache", st.State, st.CacheHit)
	}
	if !bytes.Equal(st.Result, result) {
		t.Fatal("cached result differs from computed result")
	}
	if got := s.Metrics(); got.EngineExecutions != 1 {
		t.Fatalf("resubmission re-ran the engine (%d executions)", got.EngineExecutions)
	}
}

// TestDeterministicAcrossServers: two independent servers (no shared cache)
// produce byte-identical results for the same problem — the property that
// makes the content-addressed cache semantically safe.
func TestDeterministicAcrossServers(t *testing.T) {
	var results [][]byte
	for i := 0; i < 2; i++ {
		s := newTestServer(t, Config{Workers: 1, EngineParallelism: 1 + i*3})
		st, err := s.Submit(mpeg2Problem(t, 2010), 0)
		if err != nil {
			t.Fatal(err)
		}
		final := waitState(t, s, st.ID, StateDone)
		results = append(results, final.Result)
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Fatalf("independent servers (different engine parallelism) disagree:\n%s\nvs\n%s", results[0], results[1])
	}
}

func TestCancelRunningJob(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	st, err := s.Submit(slowProblem(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRunning)
	start := time.Now()
	got, err := s.Cancel(st.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if got.State != StateCanceled {
		t.Fatalf("state %s after cancel", got.State)
	}
	// Cancellation must be prompt: the worker frees up long before the
	// multi-second exploration would have finished.
	quick := mpeg2Problem(t, 77)
	st2, err := s.Submit(quick, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st2.ID, StateDone)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("worker took %v to free after cancellation", elapsed)
	}
	// Cancelling a finished job is a conflict.
	if _, err := s.Cancel(st2.ID); !errors.Is(err, ErrFinished) {
		t.Fatalf("cancel of finished job: %v, want ErrFinished", err)
	}
	if _, err := s.Cancel("j-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel of unknown job: %v, want ErrNotFound", err)
	}
}

func TestCancelQueuedJobAndSharedFlight(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	blocker, err := s.Submit(slowProblem(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker.ID, StateRunning)

	// Two jobs for the same queued problem share one flight.
	p := mpeg2Problem(t, 5)
	a, err := s.Submit(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(mpeg2Problem(t, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Coalesced {
		t.Fatal("second identical queued submission did not coalesce")
	}
	// Cancelling one attached job must not kill the shared flight.
	if _, err := s.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, b.ID, StateDone)
	if len(final.Result) == 0 {
		t.Fatal("surviving coalesced job has no result")
	}
	if st, _ := s.Job(a.ID); st.State != StateCanceled {
		t.Fatalf("canceled sibling ended as %s", st.State)
	}
	// Cancelling the *last* attached job of a queued flight retires it
	// without an engine execution.
	before := s.Metrics().EngineExecutions
	blocker2, err := s.Submit(slowProblem(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker2.ID, StateRunning)
	lone, err := s.Submit(mpeg2Problem(t, 99), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(lone.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(blocker2.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for s.Metrics().Jobs[StateRunning] > 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never drained after cancellations")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := s.Metrics().EngineExecutions; got > before+1 {
		t.Fatalf("canceled queued flight still executed (%d -> %d)", before, got)
	}
}

// TestResubmitAfterCancelStartsFreshFlight: cancelling the sole job of a
// running flight must unpublish the flight, so an innocent identical
// resubmission starts a fresh engine execution instead of coalescing onto
// the dying one and being reported canceled.
func TestResubmitAfterCancelStartsFreshFlight(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheEntries: -1})
	// Big enough to still be running when the cancel lands, small enough
	// that the fresh flight finishes quickly.
	problem := func() *ingest.Problem {
		p := mpeg2Problem(t, 2010)
		p.Options.SearchMoves = 20_000
		return p
	}
	a, err := s.Submit(problem(), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, a.ID, StateRunning)
	if _, err := s.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(problem(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Coalesced {
		t.Fatal("resubmission coalesced onto a cancelled flight")
	}
	final := waitState(t, s, b.ID, StateDone)
	if len(final.Result) == 0 {
		t.Fatal("fresh flight produced no result")
	}
}

// TestJobRetention: finished job records beyond the retention cap are
// evicted oldest-first, while their results stay servable from the cache.
func TestJobRetention(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, JobRetention: 2})
	var ids []string
	for seed := int64(1); seed <= 4; seed++ {
		st, err := s.Submit(mpeg2Problem(t, seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, st.ID, StateDone)
		ids = append(ids, st.ID)
	}
	for _, id := range ids[:2] {
		if _, err := s.Job(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("job %s should have been evicted, got %v", id, err)
		}
	}
	for _, id := range ids[2:] {
		if st, err := s.Job(id); err != nil || st.State != StateDone {
			t.Errorf("recent job %s evicted or broken: %v", id, err)
		}
	}
	if got := len(s.Jobs()); got != 2 {
		t.Fatalf("listing has %d jobs, want 2", got)
	}
	// The evicted problems still hit the cache.
	st, err := s.Submit(mpeg2Problem(t, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || !st.CacheHit {
		t.Fatalf("evicted problem not served from cache: %s / %v", st.State, st.CacheHit)
	}
}

func TestPriorityOrdersQueue(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	blocker, err := s.Submit(slowProblem(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker.ID, StateRunning)
	low, err := s.Submit(mpeg2Problem(t, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := s.Submit(mpeg2Problem(t, 2), 3)
	if err != nil {
		t.Fatal(err)
	}
	high, err := s.Submit(mpeg2Problem(t, 3), 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	hi := waitState(t, s, high.ID, StateDone)
	md := waitState(t, s, mid.ID, StateDone)
	lo := waitState(t, s, low.ID, StateDone)
	if hi.FinishedAt.After(md.FinishedAt) || md.FinishedAt.After(lo.FinishedAt) {
		t.Fatalf("priority order violated: high %v, mid %v, low %v",
			hi.FinishedAt, md.FinishedAt, lo.FinishedAt)
	}
}

// queueOrder pops every queued flight in the order a worker would take
// them and returns their keys. Only for servers without workers.
func queueOrder(s *Server) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []string
	for len(s.queue) > 0 {
		keys = append(keys, heap.Pop(&s.queue).(*flight).key)
	}
	return keys
}

// TestCoalescedSubmitRaisesPriority: a priority-5 duplicate of a queued
// priority-0 job drags that job's flight ahead of a priority-0 flight
// queued before it.
func TestCoalescedSubmitRaisesPriority(t *testing.T) {
	s, err := newServer(Config{}) // no worker pool: flights stay queued
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	var keys []string
	for _, sub := range []struct {
		seed     int64
		priority int
	}{{1, 0}, {2, 0}, {2, 5}} {
		st, err := s.Submit(mpeg2Problem(t, sub.seed), sub.priority)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, st.Key)
		if st.Coalesced != (sub.priority == 5) {
			t.Fatalf("submission %d coalesced %v", len(keys), st.Coalesced)
		}
	}
	if got, want := queueOrder(s), []string{keys[1], keys[0]}; !slices.Equal(got, want) {
		t.Fatalf("queue order %v, want the raised flight first: %v", got, want)
	}
}

func TestQueueFullAndDraining(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	blocker, err := s.Submit(slowProblem(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker.ID, StateRunning)
	if _, err := s.Submit(mpeg2Problem(t, 1), 0); err != nil {
		t.Fatalf("first queued submission: %v", err)
	}
	accepted := s.Metrics().Submitted
	misses := s.Metrics().CacheMisses
	if _, err := s.Submit(mpeg2Problem(t, 2), 0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("beyond QueueDepth: %v, want ErrQueueFull", err)
	}
	// A rejected submission leaves no trace: no job record, no counter.
	if m := s.Metrics(); m.Submitted != accepted || m.CacheMisses != misses {
		t.Fatalf("rejected submission moved counters: submitted %d->%d, misses %d->%d",
			accepted, m.Submitted, misses, m.CacheMisses)
	}
	// Coalescing does not consume queue slots.
	if _, err := s.Submit(mpeg2Problem(t, 1), 0); err != nil {
		t.Fatalf("coalesced submission rejected: %v", err)
	}

	if _, err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := s.Submit(mpeg2Problem(t, 3), 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("submission after Close: %v, want ErrDraining", err)
	}
	// Drain let the queued job finish.
	for _, j := range s.Jobs() {
		if !j.State.Terminal() {
			t.Fatalf("job %s left in %s after drain", j.ID, j.State)
		}
	}
}

func TestWatcherReplaysInOrder(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	st, err := s.Submit(mpeg2Problem(t, 2010), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateDone)
	w, err := s.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var events []ProgressEvent
	for {
		ev, ok := w.Next(context.Background())
		if !ok {
			break
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		t.Fatal("no progress events replayed")
	}
	for i, ev := range events {
		if ev.Index != i {
			t.Fatalf("event %d has index %d; stream out of enumeration order", i, ev.Index)
		}
		if ev.Total != len(events) {
			t.Fatalf("event %d claims total %d, stream has %d", i, ev.Total, len(events))
		}
	}
}

func TestMetricsRendering(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	st, _ := s.Submit(mpeg2Problem(t, 2010), 0)
	waitState(t, s, st.ID, StateDone)
	var buf bytes.Buffer
	renderMetrics(&buf, s.Metrics())
	out := buf.String()
	for _, want := range []string{
		"seadoptd_queue_depth 0",
		"seadoptd_engine_executions_total 1",
		"seadoptd_jobs{state=\"done\"} 1",
		"seadoptd_jobs{state=\"failed\"} 0",
		"seadoptd_cache_entries 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}

// gateHandler is a slog.Handler that holds the "flight started" record until
// release is closed. It signals nothing back: a signal from the worker would
// order the worker's earlier reads before the test's next step and hide the
// race the test looks for.
type gateHandler struct{ release chan struct{} }

func (h gateHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h gateHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h gateHandler) WithGroup(string) slog.Handler            { return h }
func (h gateHandler) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "flight started" {
		<-h.release
	}
	return nil
}

// TestFlightStartLogVersusCoalescedSubmit: a worker that has just started a
// flight must not read the flight's job list unlocked while Submit coalesces
// a new job onto it. The worker is held inside its "flight started" log
// call, so it takes no lock between that read and the coalescing Submit;
// the race detector then reports any unlocked read.
func TestFlightStartLogVersusCoalescedSubmit(t *testing.T) {
	gate := gateHandler{release: make(chan struct{})}
	s := newTestServer(t, Config{Workers: 1, Logger: slog.New(gate)})
	a, err := s.Submit(mpeg2Problem(t, 2010), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, a.ID, StateRunning)
	b, err := s.Submit(mpeg2Problem(t, 2010), 0)
	if err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	if !b.Coalesced {
		t.Fatalf("second submission was not coalesced onto the running flight: %+v", b)
	}
	ra := waitState(t, s, a.ID, StateDone)
	rb := waitState(t, s, b.ID, StateDone)
	if !bytes.Equal(ra.Result, rb.Result) {
		t.Fatal("coalesced job returned different bytes")
	}
}
