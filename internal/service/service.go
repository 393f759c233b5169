// Package service turns the seadopt optimizer into a long-running
// optimization-as-a-service daemon: a job-oriented server core with a
// bounded-worker queue, per-job cancellation, and a content-addressed
// result cache.
//
// # Job model
//
// A submission is an ingest.Problem — (task graph, platform, options) — and
// a priority. Every submission gets a Job with a dense ID and walks the
// state machine
//
//	queued → running → done | failed
//	   \________\____→ canceled
//
// Problems are content-addressed by their ingest ProblemKey. Three tiers of
// deduplication keep concurrent traffic off the engine:
//
//  1. result cache: a completed result for the same key completes the job
//     immediately (cache hit, no queueing);
//  2. single-flight coalescing: a job whose key is already queued or
//     running attaches to that in-flight computation and shares its
//     result, progress stream, and — by construction — its bytes;
//  3. otherwise the job becomes a new flight on the priority queue, served
//     by a bounded worker pool running the deterministic exploration
//     engine, so equal problems produce byte-identical results even when
//     caching is disabled.
//
// Cancelling a job detaches it from its flight; the underlying computation
// is cancelled (promptly, via context) only when its last attached job is
// gone. The HTTP front end in this package exposes the whole model, with
// per-job Server-Sent-Events progress streams mirroring the engine's
// in-enumeration-order Progress callbacks.
package service

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"seadopt"
	"seadopt/internal/arch"
	"seadopt/internal/buildinfo"
	"seadopt/internal/ingest"
	"seadopt/internal/taskgraph"
)

// State is a job lifecycle state.
type State string

// The job states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Service errors. The HTTP layer maps them onto status codes.
var (
	ErrNotFound  = errors.New("service: no such job")
	ErrFinished  = errors.New("service: job already finished")
	ErrDraining  = errors.New("service: server is draining, not accepting jobs")
	ErrQueueFull = errors.New("service: job queue is full")
)

// Config tunes a Server.
type Config struct {
	// Workers bounds the number of concurrently executing optimization
	// jobs. 0 selects 2: each job's engine already fans out over
	// EngineParallelism cores, so a small number of concurrent jobs keeps
	// the machine busy without thrashing.
	Workers int
	// CacheEntries caps the LRU result cache; 0 selects 256, negative
	// disables caching.
	CacheEntries int
	// QueueDepth bounds the number of queued (not yet running) flights;
	// 0 selects 1024. Submissions beyond it fail with ErrQueueFull.
	QueueDepth int
	// EngineParallelism is the per-job exploration parallelism
	// (OptimizeOptions.Parallelism): 0 selects GOMAXPROCS. The result is
	// identical at any setting.
	EngineParallelism int
	// JobRetention caps how many finished (done/failed/canceled) job
	// records — and their progress logs — stay queryable; beyond it the
	// oldest finished jobs are evicted so a long-running daemon's memory
	// stays bounded. 0 selects 4096, negative retains everything. Results
	// outlive their job records in the LRU cache.
	JobRetention int
	// DefaultStrategy is applied to submissions that leave the strategy
	// job option empty, before the problem is hashed — so a daemon booted
	// with -strategy exhaustive caches those results under the exhaustive
	// key. "" selects the engine default (branch-and-bound).
	DefaultStrategy string
	// DefaultMode is applied to submissions that leave the mode job option
	// empty, before the problem is hashed — a daemon booted with -pareto
	// serves frontiers for plain submissions. "" selects scalar mode.
	DefaultMode string
	// DefaultObjectives is applied to pareto-mode submissions that leave
	// the objectives job option empty, before the problem is hashed.
	// "" selects all three objectives.
	DefaultObjectives string
	// DefaultPlatform is applied to submissions that carry no platform
	// field — a daemon booted with -platform serves that MPSoC (possibly
	// heterogeneous) by default. Nil selects 4 ARM7 cores × Table I.
	// Submissions that do name a platform are unaffected.
	DefaultPlatform *arch.Platform
	// StoreDir, when non-empty, enables the durable job store: every
	// accepted submission and terminal outcome is appended (and fsynced) to an append-only journal under this
	// directory before it is acknowledged, and a restarting daemon
	// replays the journal — finished results are served byte-identically
	// from it, and jobs that were queued or running at the crash are
	// re-enqueued under their original IDs. Empty keeps the server fully
	// in-memory.
	StoreDir string
	// Peers lists sibling seadoptd base URLs (e.g. "http://host:8080")
	// this server fans exploration shards out to. Each eligible job's
	// combination space is split into contiguous rank ranges: one runs
	// embedded in this process, the rest POST to the peers' internal
	// shard endpoint (falling back to embedded execution when a peer is
	// unreachable). A peer's request carries its range and fold; peers
	// exchange nothing while they run. A ranked scalar job whose ranked
	// pass finds a probe-feasible scaling resolves here and sends no
	// shard. The merged result is byte-identical to a single-node run.
	// Empty disables distribution.
	Peers []string
	// Shards overrides the shard count for distributed jobs; 0 (or a
	// negative count) selects len(Peers)+1 (one embedded shard plus one per
	// peer).
	Shards int
	// RateLimit caps per-client submissions per second, a client being the
	// request's remote host (request headers do not count: a client could
	// name itself anew on every request); breaches get 429 with a
	// Retry-After. 0 disables rate limiting.
	RateLimit float64
	// RateBurst is the token-bucket burst size; 0 selects
	// max(1, ceil(RateLimit)).
	RateBurst int
	// MaxBodyBytes caps submission payloads; oversized bodies get 413.
	// 0 selects 16 MiB.
	MaxBodyBytes int64
	// Now supplies the clock behind job timestamps, queue-wait and
	// execution durations and the latency histograms. Nil selects
	// time.Now; tests inject a fake clock to assert exact durations.
	Now func() time.Time
	// Logger receives structured job-lifecycle, worker-pool and HTTP
	// request logs. Nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.Shards < 0 {
		c.Shards = 0
	}
	if c.EngineParallelism <= 0 {
		c.EngineParallelism = runtime.GOMAXPROCS(0)
	}
	if c.JobRetention == 0 {
		c.JobRetention = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.RateLimit > 0 && c.RateBurst <= 0 {
		c.RateBurst = int(math.Ceil(c.RateLimit))
		if c.RateBurst < 1 {
			c.RateBurst = 1
		}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// ProgressEvent is one resolved scaling combination of a job's design-space
// exploration, mirrored from the engine's in-order Progress callbacks: Index
// is the 0-based visit index within Total, and events always arrive in
// enumeration order. Under the branch-and-bound strategy, combinations the
// engine proved irrelevant without mapping them carry Pruned or Skipped
// (their design fields are zero), and every event carries the cumulative
// pruned-or-skipped count so SSE clients can watch the bound work.
type ProgressEvent struct {
	Index       int     `json:"index"`
	Total       int     `json:"total"`
	Combination int     `json:"combination"`
	Scaling     []int   `json:"scaling"`
	Pruned      bool    `json:"pruned,omitempty"`
	Skipped     bool    `json:"skipped,omitempty"`
	PrunedTotal int     `json:"pruned_total"`
	PowerW      float64 `json:"power_w"`
	Gamma       float64 `json:"gamma"`
	Feasible    bool    `json:"feasible"`
	BestPowerW  float64 `json:"best_power_w"`
	BestGamma   float64 `json:"best_gamma"`
	// Pareto-mode fields: whether this combination's design joined the
	// frontier, and the frontier size after folding it in — the per-point
	// stream an SSE client plots the growing trade-off surface from.
	Admitted     bool `json:"admitted,omitempty"`
	FrontierSize int  `json:"frontier_size,omitempty"`
	// Point tags sweep-mode events with the 1-based sweep point (in the
	// deterministic platform-major × deadline × objective-set order) the
	// combination belongs to. Zero — absent on the wire — for single-point
	// jobs.
	Point int `json:"point,omitempty"`
}

// Job is the server-side record of one submission. All fields are guarded
// by the Server mutex; external callers see JobStatus snapshots.
type Job struct {
	id        string
	key       string
	graph     string
	priority  int
	state     State
	cacheHit  bool
	coalesced bool
	errMsg    string
	entry     *cacheEntry // a done job's result, shared with the cache
	submitted time.Time
	started   time.Time // when the job's flight was dequeued (zero while queued)
	finished  time.Time
	flight    *flight
	// detached flips when the job is individually canceled, so progress
	// watchers can observe it without the server mutex.
	detached atomic.Bool
}

// JobStatus is an externally-visible snapshot of a job.
type JobStatus struct {
	ID          string          `json:"id"`
	Key         string          `json:"key"`
	Graph       string          `json:"graph"`
	State       State           `json:"state"`
	Priority    int             `json:"priority"`
	CacheHit    bool            `json:"cache_hit,omitempty"`
	Coalesced   bool            `json:"coalesced,omitempty"`
	Completed   int             `json:"progress_completed"`
	Total       int             `json:"progress_total"`
	Error       string          `json:"error,omitempty"`
	Summary     string          `json:"summary,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	SubmittedAt time.Time       `json:"submitted_at"`
	FinishedAt  time.Time       `json:"finished_at,omitzero"`
	// QueueWaitSec is how long the job waited for a worker; RunSec how
	// long its engine execution took (running jobs report the elapsed
	// time so far). Cache-hit jobs report neither.
	QueueWaitSec float64 `json:"queue_wait_sec,omitempty"`
	RunSec       float64 `json:"run_sec,omitempty"`
	// Stats is the engine's exploration-telemetry snapshot, available
	// once the job is done (and served from cache with the result).
	Stats *seadopt.ExploreStats `json:"engine_stats,omitempty"`
}

// flight is one underlying engine execution, shared by every job whose
// problem hashes to the same key while it is queued or running.
type flight struct {
	key      string
	problem  *ingest.Problem
	seq      int64
	prio     int
	index    int // heap index; -1 once popped
	refs     int // attached (non-canceled) jobs
	jobs     []*Job
	running  bool
	enqueued time.Time
	ctx      context.Context
	cancel   context.CancelFunc

	// The progress log has its own lock so SSE streaming never contends
	// with the scheduler. Lock ordering: Server.mu may be held when taking
	// logMu, never the reverse.
	logMu   sync.Mutex
	logCond *sync.Cond
	events  []ProgressEvent
	closed  bool
}

func (f *flight) append(ev ProgressEvent) {
	f.logMu.Lock()
	f.events = append(f.events, ev)
	f.logCond.Broadcast()
	f.logMu.Unlock()
}

// close marks the progress stream terminal and wakes every watcher.
func (f *flight) close() {
	f.logMu.Lock()
	f.closed = true
	f.logCond.Broadcast()
	f.logMu.Unlock()
}

// notify wakes watchers so they can re-check non-log conditions (job
// cancellation, client disconnect).
func (f *flight) notify() {
	f.logMu.Lock()
	f.logCond.Broadcast()
	f.logMu.Unlock()
}

// progress returns how many progress events the flight has logged and the
// exploration size the latest one reports.
func (f *flight) progress() (completed, total int) {
	f.logMu.Lock()
	defer f.logMu.Unlock()
	if n := len(f.events); n > 0 {
		return n, f.events[n-1].Total
	}
	return 0, 0
}

// flightQueue is a priority heap: higher priority first, FIFO within a
// priority (by submission sequence).
type flightQueue []*flight

func (q flightQueue) Len() int { return len(q) }
func (q flightQueue) Less(i, j int) bool {
	if q[i].prio != q[j].prio {
		return q[i].prio > q[j].prio
	}
	return q[i].seq < q[j].seq
}
func (q flightQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}
func (q *flightQueue) Push(x any) {
	f := x.(*flight)
	f.index = len(*q)
	*q = append(*q, f)
}
func (q *flightQueue) Pop() any {
	old := *q
	f := old[len(old)-1]
	old[len(old)-1] = nil
	f.index = -1
	*q = old[:len(old)-1]
	return f
}

// Server is the optimization-as-a-service core: it owns the job table, the
// flight queue, the worker pool and the result cache. Create one with
// NewServer and shut it down with Close.
type Server struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	cond      *sync.Cond
	jobs      map[string]*Job
	jobOrder  []string
	flights   map[string]*flight
	queue     flightQueue
	cache     *lru[*cacheEntry]
	jobSeq    int64
	flightSeq int64
	terminal  int // jobs currently retained in a terminal state
	draining  bool

	wg sync.WaitGroup

	// Latency histograms (internally locked; never taken under s.mu
	// ordering constraints — they are leaf locks).
	queueWaitHist *histogram
	execHist      *histogram
	httpMu        sync.Mutex
	httpHists     map[string]*histogram // by route pattern
	reqSeq        atomic.Int64          // HTTP request IDs

	// hookExecute, when non-nil, runs at the top of every engine
	// execution; timing tests use it to hold a flight open while they
	// advance a fake clock.
	hookExecute func(*flight)

	// Cross-job acceleration: shared engine reuse bundles by ProbeKey.
	reuses *reuseRegistry

	// Durable job store (nil when StoreDir is empty). recoverySec is how
	// long the boot's journal replay and recovery took; it is written
	// before any other goroutine sees the server.
	store       *jobStore
	recoverySec float64

	// Admission control (nil when RateLimit is 0).
	limiter *rateLimiter

	cacheHits    atomic.Int64
	docHits      atomic.Int64 // cache hits answered by document (submitByDocument)
	cacheMisses  atomic.Int64
	coalesced    atomic.Int64
	engineExecs  atomic.Int64
	submitted    atomic.Int64
	explored     atomic.Int64 // combinations the mapper actually evaluated
	pruned       atomic.Int64 // combinations pruned or skipped by the bound
	paretoJobs   atomic.Int64 // pareto-mode engine executions
	frontierSize atomic.Int64 // frontier size of the latest finished pareto job
	sweepPoints  atomic.Int64 // sweep points evaluated by batch jobs
	shardedExecs atomic.Int64 // engine executions fanned out over shards
	shardsServed atomic.Int64 // shard requests this server executed for peers

	// Admission rejections by reason; every reason is always exported.
	rejectedDraining atomic.Int64
	rejectedPayload  atomic.Int64
	rejectedQueue    atomic.Int64
	rejectedRate     atomic.Int64
}

// NewServer starts a Server: it opens (and replays) the durable job store
// when cfg.StoreDir is set, then starts the worker pool. Jobs that were
// queued or running when a previous process died are re-enqueued under
// their original IDs before any worker runs.
func NewServer(cfg Config) (*Server, error) {
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	for w := 0; w < s.cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// newServer is NewServer without the worker pool: the server state with
// the journal, if any, replayed into it.
func newServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:           cfg,
		ctx:           ctx,
		cancel:        cancel,
		jobs:          make(map[string]*Job),
		flights:       make(map[string]*flight),
		cache:         newLRU[*cacheEntry](cfg.CacheEntries),
		reuses:        newReuseRegistry(32),
		queueWaitHist: newHistogram(latencyBuckets()),
		execHist:      newHistogram(latencyBuckets()),
		httpHists:     make(map[string]*histogram),
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.RateLimit > 0 {
		s.limiter = newRateLimiter(cfg.RateLimit, float64(cfg.RateBurst), cfg.Now)
	}
	if cfg.StoreDir != "" {
		start := time.Now()
		store, recs, err := openJobStore(cfg.StoreDir)
		if err != nil {
			cancel()
			return nil, err
		}
		s.store = store
		s.recover(recs)
		s.recoverySec = time.Since(start).Seconds()
	}
	return s, nil
}

// recover replays the journal into the in-memory state: finished results
// reinstall into the cache and their job records, and jobs without a
// terminal outcome are re-enqueued under their original IDs (re-running
// deterministically to the same bytes). Record kinds older journals hold
// ("hint", "frontier") are skipped. No worker runs yet, so recovery is
// single-threaded.
func (s *Server) recover(recs []storeRecord) {
	type jobRec struct {
		rec      *storeRecord
		result   *storeRecord
		canceled *storeRecord
		entry    *cacheEntry // rebuilt from a done result record
	}
	jobs := make(map[string]*jobRec)
	var order []string
	var maxSeq int64
	for i := range recs {
		rec := &recs[i]
		switch rec.Kind {
		case "job":
			if _, ok := jobs[rec.ID]; !ok {
				order = append(order, rec.ID)
				jobs[rec.ID] = &jobRec{rec: rec}
			}
			var seq int64
			if _, err := fmt.Sscanf(rec.ID, "j-%d", &seq); err == nil && seq > maxSeq {
				maxSeq = seq
			}
		case "result":
			// Only a terminal outcome finishes a job; anything else is not
			// a record this server writes.
			if jr, ok := jobs[rec.ID]; ok && rec.State.Terminal() {
				jr.result = rec
			}
		case "cancel":
			if jr, ok := jobs[rec.ID]; ok {
				jr.canceled = rec
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobSeq = maxSeq
	// First pass: rebuild every done result record into a cache entry and
	// reinstall it, so re-enqueued and future submissions over the same key
	// serve the stored bytes, and index the entries by key for the cache
	// hits journaled by key alone.
	done := make(map[string]*cacheEntry)
	for _, id := range order {
		if r := jobs[id].result; r != nil && r.State == StateDone {
			e := &cacheEntry{result: r.Result, summary: r.Summary, total: r.Total, journaled: true}
			jobs[id].entry = e
			done[r.Key] = e
			s.cache.Add(r.Key, e)
		}
	}
	requeued, terminal := 0, 0
	for _, id := range order {
		jr := jobs[id]
		j := &Job{
			id:        id,
			key:       jr.rec.Key,
			graph:     jr.rec.Graph,
			priority:  jr.rec.Priority,
			submitted: jr.rec.At,
		}
		switch {
		case jr.canceled != nil:
			j.state = StateCanceled
			j.finished = jr.canceled.At
			j.detached.Store(true)
		case jr.result != nil:
			j.state = jr.result.State
			j.entry = jr.entry
			j.errMsg = jr.result.Error
			j.finished = jr.result.At
		case jr.rec.State == StateDone:
			// A cache hit journaled by key: its bytes are the done result
			// the journal holds for that key.
			if e, ok := done[j.key]; ok {
				j.finishHit(e)
			} else {
				j.fail("recovery: no done result journaled for key " + j.key)
			}
		default:
			// Accepted but unfinished at the crash: decode and re-admit.
			p, err := ingest.DecodeProblem(jr.rec.Problem)
			if err != nil {
				j.fail("recovery: " + err.Error())
			} else if e, hit := s.cache.Get(j.key); hit {
				j.finishHit(e) // an identical problem finished before the crash
			} else {
				s.admitLocked(j, p)
				requeued++
			}
		}
		if j.state.Terminal() {
			s.terminal++
			terminal++
		}
		s.jobs[id] = j
		s.jobOrder = append(s.jobOrder, id)
	}
	s.pruneLocked()
	if len(order) > 0 {
		s.cfg.Logger.Info("store recovered",
			"dir", s.cfg.StoreDir, "jobs", len(order),
			"requeued", requeued, "terminal", terminal)
	}
}

// finishHit completes a job from a cached result.
func (j *Job) finishHit(e *cacheEntry) {
	j.state = StateDone
	j.cacheHit = true
	j.entry = e
	j.finished = j.submitted
}

// fail ends a job that can never run.
func (j *Job) fail(msg string) {
	j.state = StateFailed
	j.errMsg = msg
	j.finished = j.submitted
}

// admitLocked attaches j to the flight already computing its key —
// dragging a queued flight up to j's priority — or queues a new flight for
// p. The caller holds s.mu.
func (s *Server) admitLocked(j *Job, p *ingest.Problem) {
	if f, ok := s.flights[j.key]; ok {
		j.coalesced = true
		j.flight = f
		f.refs++
		f.jobs = append(f.jobs, j)
		if f.running {
			j.state = StateRunning
			j.started = s.cfg.Now()
		} else {
			j.state = StateQueued
			if j.priority > f.prio {
				f.prio = j.priority
				heap.Fix(&s.queue, f.index)
			}
		}
		return
	}
	ctx, cancel := context.WithCancel(s.ctx)
	s.flightSeq++
	f := &flight{
		key:      j.key,
		problem:  p,
		seq:      s.flightSeq,
		prio:     j.priority,
		refs:     1,
		jobs:     []*Job{j},
		enqueued: j.submitted,
		ctx:      ctx,
		cancel:   cancel,
	}
	f.logCond = sync.NewCond(&f.logMu)
	j.state = StateQueued
	j.flight = f
	s.flights[j.key] = f
	heap.Push(&s.queue, f)
	s.cond.Signal()
}

// Submit enqueues an optimization problem and returns the job's initial
// status: done immediately on a cache hit, queued/running when coalesced
// onto an in-flight computation, queued otherwise. Submissions that leave
// the strategy option empty inherit the server's default strategy before
// hashing, so their cache identity records the walk that will run.
//
// Submit refuses a graph that ingest.ValidateGraph rejects or whose graph,
// task or register names are not valid UTF-8. Every key in the cache thus
// belongs to a graph G that FromJSON(G.MarshalJSON()) rebuilds with G's
// names and structure, so the HTTP path's decoder would accept G's
// canonical document, and the answer submitByDocument gives it from the
// key alone is the answer that decoder's path gives. Without the guard, an
// in-process submission of a disconnected graph, or of two task names
// apart only in an invalid byte (MarshalJSON writes each invalid byte as
// U+FFFD), would let a POST of its canonical bytes hit by document instead
// of being refused.
func (s *Server) Submit(p *ingest.Problem, priority int) (JobStatus, error) {
	if defaulted, changed := s.applyDefaults(p.Options); changed {
		// Work on a copy: the caller's Problem keeps its empty-option
		// markers, so resubmitting it elsewhere still means "that server's
		// default" rather than this server's.
		copied := *p
		copied.Options = defaulted
		p = &copied
	}
	// Hash outside the lock; the graph encoding dominates the cost. The
	// encoding itself is kept for the durable store, which journals it
	// with every job but a cache hit on a journaled result.
	enc, err := p.CanonicalEncoding()
	if err != nil {
		return JobStatus{}, err
	}
	if err := checkGraph(p.Graph); err != nil {
		return JobStatus{}, err
	}
	return s.admit(p, ingest.EncodingKey(enc), enc, p.Graph.Name(), priority)
}

// checkGraph is Submit's guard: ingest.ValidateGraph, and valid UTF-8 in
// the graph's name and every task and register name.
func checkGraph(g *taskgraph.Graph) error {
	if err := ingest.ValidateGraph(g); err != nil {
		return err
	}
	if !utf8.ValidString(g.Name()) {
		return fmt.Errorf("service: graph name %q is not valid UTF-8", g.Name())
	}
	for _, t := range g.Tasks() {
		if !utf8.ValidString(t.Name) {
			return fmt.Errorf("service: task name %q is not valid UTF-8", t.Name)
		}
	}
	for _, id := range g.Inventory().IDs() {
		if !utf8.ValidString(id) {
			return fmt.Errorf("service: register name %q is not valid UTF-8", id)
		}
	}
	return nil
}

// errDeclined is admit's answer to a by-document submission it does not
// take: the server is draining or the cache misses. It changed nothing.
var errDeclined = errors.New("service: submission not answered by document")

// admit is the one admission section, under s.mu: the draining check, the
// cache lookup, the queue bound, the job record and its journal record,
// the counters and the log line. key and enc are the problem's key and
// canonical encoding, graph the name the job records. p is the problem a
// miss queues. A nil p marks a submission answered by document
// (submitByDocument): admit takes it only on a cache hit, and otherwise
// returns errDeclined with nothing recorded.
func (s *Server) admit(p *ingest.Problem, key string, enc []byte, graph string, priority int) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		if p == nil {
			return JobStatus{}, errDeclined
		}
		return JobStatus{}, ErrDraining
	}
	e, hit := s.cache.Get(key)
	if !hit && p == nil {
		return JobStatus{}, errDeclined
	}
	if _, coalescing := s.flights[key]; !hit && !coalescing && len(s.queue) >= s.cfg.QueueDepth {
		// Reject before anything is recorded: rejected traffic must not
		// move the submitted/miss counters or leave a job record behind.
		return JobStatus{}, ErrQueueFull
	}
	s.jobSeq++
	j := &Job{
		id:        fmt.Sprintf("j-%06d", s.jobSeq),
		key:       key,
		graph:     graph,
		priority:  priority,
		submitted: s.cfg.Now(),
	}
	if s.store != nil {
		// Durability before acknowledgement: the job record must be synced
		// to disk before the submission is accepted anywhere in memory. A
		// failed append releases the ID and rejects the submission. A hit
		// whose result record is journaled is recorded done, by key; any
		// other job carries its problem so recovery can re-run it.
		rec := storeRecord{
			Kind: "job", ID: j.id, Key: key, Graph: j.graph,
			Priority: priority, At: j.submitted,
		}
		if hit && e.journaled {
			rec.State = StateDone
		} else {
			rec.Problem = enc
		}
		if err := s.store.Append(rec); err != nil {
			s.jobSeq--
			return JobStatus{}, err
		}
	}
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	s.submitted.Add(1)
	if hit {
		s.cacheHits.Add(1)
		if p == nil {
			s.docHits.Add(1)
		}
		j.finishHit(e)
		s.terminal++
		s.pruneLocked()
	} else {
		s.cacheMisses.Add(1)
		s.admitLocked(j, p)
		if j.coalesced {
			s.coalesced.Add(1)
		}
	}
	s.cfg.Logger.Info("job submitted",
		"job", j.id, "key", key, "graph", j.graph, "priority", priority,
		"state", j.state, "cache_hit", j.cacheHit, "coalesced", j.coalesced)
	return s.statusLocked(j), nil
}

// applyDefaults fills the server-default strategy, mode and objectives into
// options that leave them empty, before the problem is hashed — so the
// cache identity always records the walk and fold that will actually run.
func (s *Server) applyDefaults(o ingest.Options) (ingest.Options, bool) {
	changed := false
	if o.Strategy == "" && s.cfg.DefaultStrategy != "" {
		o.Strategy = s.cfg.DefaultStrategy
		changed = true
	}
	if o.Mode == "" && s.cfg.DefaultMode != "" {
		o.Mode = s.cfg.DefaultMode
		changed = true
	}
	if mode, err := ingest.ParseMode(o.Mode); err == nil && mode == ingest.ModePareto &&
		o.Objectives == "" && s.cfg.DefaultObjectives != "" {
		o.Objectives = s.cfg.DefaultObjectives
		changed = true
	}
	return o, changed
}

// Job returns a snapshot of the job with the given ID.
func (s *Server) Job(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	return s.statusLocked(j), nil
}

// Jobs returns snapshots of every job in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.jobOrder))
	for _, id := range s.jobOrder {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	return out
}

// Cancel cancels a queued or running job. The job is detached from its
// flight immediately; the underlying engine execution is cancelled only
// when no other job is attached to it. Cancelling a finished job returns
// ErrFinished.
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	if j.state.Terminal() {
		return s.statusLocked(j), fmt.Errorf("%w (%s is %s)", ErrFinished, id, j.state)
	}
	j.state = StateCanceled
	j.finished = s.cfg.Now()
	j.detached.Store(true)
	s.terminal++
	if s.store != nil {
		// Losing a cancel record is safe — the job would merely re-run
		// after a crash — so a failed append only warns.
		if err := s.store.Append(storeRecord{Kind: "cancel", ID: j.id, At: j.finished}); err != nil {
			s.cfg.Logger.Warn("store append failed", "kind", "cancel", "job", j.id, "error", err.Error())
		}
	}
	s.cfg.Logger.Info("job canceled", "job", j.id, "key", j.key)
	if f := j.flight; f != nil {
		f.refs--
		if f.refs == 0 {
			f.cancel()
			// Unpublish the dying flight either way, so an identical
			// resubmission starts fresh instead of coalescing onto a
			// cancelled execution and being reported canceled itself.
			delete(s.flights, f.key)
			if !f.running {
				// Still queued: nothing will ever run it; retire it now.
				heap.Remove(&s.queue, f.index)
				defer f.close()
			}
		}
		defer f.notify()
	}
	s.pruneLocked()
	return s.statusLocked(j), nil
}

// Watch returns a progress watcher for the job, replaying the events
// already emitted and following the live stream.
func (s *Server) Watch(id string) (*Watcher, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return &Watcher{j: j, f: j.flight}, nil
}

// Watcher iterates a job's progress events in enumeration order. Each job's
// watchers see the same sequence: a replay of everything already emitted,
// then the live tail.
type Watcher struct {
	j    *Job
	f    *flight
	next int
}

// Next blocks until another progress event is available and returns it.
// It returns ok=false when the stream is over: the flight finished, the
// job was canceled, or ctx was cancelled (client gone).
func (w *Watcher) Next(ctx context.Context) (ProgressEvent, bool) {
	f := w.f
	if f == nil {
		return ProgressEvent{}, false // cache-hit job: no computation ran
	}
	stop := context.AfterFunc(ctx, f.notify)
	defer stop()
	f.logMu.Lock()
	defer f.logMu.Unlock()
	for {
		if w.next < len(f.events) {
			ev := f.events[w.next]
			w.next++
			return ev, true
		}
		if f.closed || ctx.Err() != nil || w.j.detached.Load() {
			return ProgressEvent{}, false
		}
		f.logCond.Wait()
	}
}

// worker serves flights off the priority queue until Close drains the
// server.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.draining {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		f := heap.Pop(&s.queue).(*flight)
		if f.refs == 0 {
			// Raced with a cancellation that did not retire it; nothing to do.
			if cur, ok := s.flights[f.key]; ok && cur == f {
				delete(s.flights, f.key)
			}
			s.mu.Unlock()
			f.close()
			continue
		}
		f.running = true
		started := s.cfg.Now()
		for _, j := range f.jobs {
			if j.state == StateQueued {
				j.state = StateRunning
				j.started = started
			}
		}
		wait := started.Sub(f.enqueued).Seconds()
		// Read under the lock: Submit appends coalesced jobs to f.jobs.
		jobs := len(f.jobs)
		s.mu.Unlock()
		s.queueWaitHist.Observe(wait)
		s.cfg.Logger.Info("flight started",
			"key", f.key, "jobs", jobs, "queue_wait_sec", wait)
		s.run(f)
	}
}

// run executes a flight and fans its outcome out to every attached job.
func (s *Server) run(f *flight) {
	execStart := s.cfg.Now()
	e, err := s.execute(f)
	execSec := s.cfg.Now().Sub(execStart).Seconds()
	s.execHist.Observe(execSec)
	state, errMsg := StateDone, ""
	switch {
	case err == nil:
		_, e.total = f.progress()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		state, errMsg = StateCanceled, "canceled"
	default:
		state, errMsg = StateFailed, err.Error()
	}
	// Every job the flight finishes gets the same result record but its ID.
	// A lost record only costs a deterministic re-run after the next crash,
	// so a failed append warns rather than failing the job.
	rec := storeRecord{Kind: "result", Key: f.key, State: state, Error: errMsg}
	if e != nil {
		rec.Result, rec.Summary, rec.Total = e.result, e.summary, e.total
	}
	s.mu.Lock()
	// Retire only our own entry: a cancellation may already have
	// unpublished this flight and let a fresh one claim the key.
	if cur, ok := s.flights[f.key]; ok && cur == f {
		delete(s.flights, f.key)
	}
	rec.At = s.cfg.Now()
	finished := 0
	for _, j := range f.jobs {
		if j.state != StateRunning {
			continue // individually canceled while we ran
		}
		j.state, j.errMsg, j.entry, j.finished = state, errMsg, e, rec.At
		if s.store != nil {
			rec.ID = j.id
			if aerr := s.store.Append(rec); aerr != nil {
				s.cfg.Logger.Warn("store append failed", "kind", "result", "job", j.id, "error", aerr.Error())
			} else if e != nil {
				e.journaled = true
			}
		}
		s.terminal++
		finished++
	}
	if e != nil {
		s.cache.Add(f.key, e)
	}
	s.pruneLocked()
	s.mu.Unlock()
	f.close()
	logArgs := []any{"key", f.key, "outcome", string(state), "jobs", finished, "exec_sec", execSec}
	if err != nil {
		logArgs = append(logArgs, "error", err.Error())
	}
	s.cfg.Logger.Info("flight finished", logArgs...)
}

// execute runs the engine for a flight. This is the only place the service
// calls into the optimizer; the engine-execution counter around it is what
// the single-flight and cache tests assert on. The returned entry lacks
// only the exploration size, which run reads off the progress log.
func (s *Server) execute(f *flight) (*cacheEntry, error) {
	if hook := s.hookExecute; hook != nil {
		hook(f)
	}
	p, o := f.problem, f.problem.Options
	mode, err := ingest.ParseMode(o.Mode)
	if err != nil {
		return nil, err
	}
	opts, err := s.engineOptions(p)
	if err != nil {
		return nil, err
	}
	opts.Stats = new(seadopt.ExploreStats)
	if mode == ingest.ModeSweep {
		return s.executeSweep(f, opts)
	}
	e := &cacheEntry{stats: opts.Stats}
	sys, err := seadopt.NewSystem(p.Graph, p.Platform)
	if err != nil {
		return nil, err
	}
	prunedSoFar := 0 // engine Progress callbacks are serialized in order
	opts.Progress = func(ev seadopt.ExploreProgress) {
		s.mirrorProgress(f, 0, &prunedSoFar, ev)
	}
	// Distributed execution: when peers (or an explicit shard count) are
	// configured and the job shape is distributable, fan the enumeration out
	// over shards and fold their records, as hints, on the engine's one
	// claim stream. Engine telemetry is per-process, so a flight whose
	// shards ran carries no stats snapshot (its /stats endpoint answers
	// 409) — the result and progress bytes are still identical to a
	// single-node run. A flight that ran no shard keeps its stats.
	var sharded atomic.Bool
	runners := s.shardRunnersFor(f, sys, opts, mode, &sharded)
	defer func() {
		if sharded.Load() {
			e.stats = nil
		}
	}()
	s.engineExecs.Add(1)
	if mode == ingest.ModePareto {
		s.paretoJobs.Add(1)
		var frontier []*seadopt.Design
		if runners != nil {
			frontier, err = sys.OptimizeShardedParetoContext(f.ctx, opts, runners)
		} else {
			frontier, err = sys.OptimizeParetoContext(f.ctx, opts)
		}
		if err != nil {
			return nil, err
		}
		s.frontierSize.Store(int64(len(frontier)))
		if e.result, e.summary, err = marshalFrontier(frontier, opts.Objectives); err != nil {
			return nil, err
		}
		return e, nil
	}
	var d *seadopt.Design
	switch o.Baseline {
	case "":
		if runners != nil {
			d, err = sys.OptimizeShardedContext(f.ctx, opts, runners)
		} else {
			d, err = sys.OptimizeContext(f.ctx, opts)
		}
	case "reg":
		d, err = sys.OptimizeBaselineContext(f.ctx, seadopt.MinimizeRegisterUsage, opts)
	case "makespan":
		d, err = sys.OptimizeBaselineContext(f.ctx, seadopt.MinimizeMakespan, opts)
	case "regtime":
		d, err = sys.OptimizeBaselineContext(f.ctx, seadopt.MinimizeRegTime, opts)
	default:
		return nil, fmt.Errorf("service: unknown baseline %q", o.Baseline)
	}
	if err != nil {
		return nil, err
	}
	if e.result, err = json.Marshal(d); err != nil {
		return nil, err
	}
	e.summary = d.Summary()
	return e, nil
}

// engineOptions translates a problem's options into the engine's: the one
// place the service parses strategy and objectives. Every job shares the
// verdict-preserving reuse layer (probe trajectories, bounds, pooled
// evaluators) with the other jobs over its probe universe; a sweep takes
// the bundle of each of its platforms in executeSweep.
//
// A scalar branch-and-bound job without a baseline walks ranked: the
// engine first walks scalings in ascending nominal power until one is
// probe-feasible, and that nominal prunes the stream from its first
// combination. The Design is byte-identical to an exhaustive walk; only
// the pruned/skipped split of the progress stream differs from the plain
// walk. Earlier jobs over the same probe universe left their probe
// verdicts in the shared bundle, so the walk re-probes none of them.
func (s *Server) engineOptions(p *ingest.Problem) (seadopt.OptimizeOptions, error) {
	o := p.Options
	strategy, err := seadopt.ParseExploreStrategy(o.Strategy)
	if err != nil {
		return seadopt.OptimizeOptions{}, err
	}
	objectives, err := seadopt.ParseParetoObjectives(o.Objectives)
	if err != nil {
		return seadopt.OptimizeOptions{}, err
	}
	opts := seadopt.OptimizeOptions{
		SER:              o.SER,
		DeadlineSec:      o.DeadlineSec,
		StreamIterations: o.StreamIterations,
		SearchMoves:      o.SearchMoves,
		Seed:             o.Seed,
		Strategy:         strategy,
		SampleBudget:     o.SampleBudget,
		Objectives:       objectives,
		Parallelism:      s.cfg.EngineParallelism,
	}
	mode, _ := ingest.ParseMode(o.Mode)
	if mode == ingest.ModeScalar {
		opts.Ranked = strategy == seadopt.StrategyBranchAndBound && o.Baseline == ""
	}
	if mode != ingest.ModeSweep {
		if pk, err := p.ProbeKey(); err == nil {
			opts.Reuse = s.reuses.Get(pk)
		}
	}
	return opts, nil
}

// mirrorProgress folds one engine progress callback into the flight's event
// log. point tags sweep events with their 1-based sweep point (0 — absent on
// the wire — for single-point jobs); prunedSoFar is the job-wide cumulative
// pruned/skipped counter (engine callbacks are serialized in order, per
// point and across sweep points).
func (s *Server) mirrorProgress(f *flight, point int, prunedSoFar *int, p seadopt.ExploreProgress) {
	ev := ProgressEvent{
		Index:        p.Index,
		Total:        p.Total,
		Combination:  p.Combination,
		Scaling:      append([]int{}, p.Scaling...),
		Pruned:       p.Pruned,
		Skipped:      p.Skipped,
		Admitted:     p.Admitted,
		FrontierSize: p.FrontierSize,
		Point:        point,
	}
	if p.Pruned || p.Skipped {
		*prunedSoFar++
		s.pruned.Add(1)
	} else {
		s.explored.Add(1)
		ev.PowerW = p.Design.Eval.PowerW
		ev.Gamma = p.Design.Eval.Gamma
		ev.Feasible = p.Design.Eval.MeetsDeadline
	}
	ev.PrunedTotal = *prunedSoFar
	if p.Best != nil {
		ev.BestPowerW = p.Best.Eval.PowerW
		ev.BestGamma = p.Best.Eval.Gamma
	}
	f.append(ev)
}

// marshalFrontier renders a Pareto frontier result: a wrapper object
// carrying the objective selection, the frontier size and the ordered
// member designs in the same wire encoding scalar results use. The encoding
// is deterministic, so frontier results cache and coalesce like scalar
// ones.
func marshalFrontier(frontier []*seadopt.Design, objectives seadopt.ParetoObjectives) ([]byte, string, error) {
	payload := struct {
		Mode       string            `json:"mode"`
		Objectives string            `json:"objectives"`
		Size       int               `json:"size"`
		Frontier   []*seadopt.Design `json:"frontier"`
	}{Mode: ingest.ModePareto, Objectives: objectives.String(), Size: len(frontier), Frontier: frontier}
	result, err := json.Marshal(payload)
	if err != nil {
		return nil, "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "pareto frontier over (%s): %d design(s)\n", objectives.String(), len(frontier))
	for i, d := range frontier {
		fmt.Fprintf(&sb, "  [%d] scaling %v  %s\n", i, d.Scaling, d.Eval.String())
	}
	return result, sb.String(), nil
}

// pruneLocked evicts the oldest finished jobs beyond the retention cap;
// the caller holds s.mu. Running and queued jobs are never evicted, and
// evicted results remain servable from the LRU cache.
func (s *Server) pruneLocked() {
	if s.cfg.JobRetention < 0 || s.terminal <= s.cfg.JobRetention {
		return
	}
	evict := s.terminal - s.cfg.JobRetention
	keep := s.jobOrder[:0]
	for _, id := range s.jobOrder {
		j := s.jobs[id]
		if evict > 0 && j.state.Terminal() {
			delete(s.jobs, id)
			s.terminal--
			evict--
			continue
		}
		keep = append(keep, id)
	}
	// Let the dropped tail be collected.
	for i := len(keep); i < len(s.jobOrder); i++ {
		s.jobOrder[i] = ""
	}
	s.jobOrder = keep
}

// statusLocked snapshots a job; the caller holds s.mu.
func (s *Server) statusLocked(j *Job) JobStatus {
	st := JobStatus{
		ID:          j.id,
		Key:         j.key,
		Graph:       j.graph,
		State:       j.state,
		Priority:    j.priority,
		CacheHit:    j.cacheHit,
		Coalesced:   j.coalesced,
		Error:       j.errMsg,
		SubmittedAt: j.submitted,
		FinishedAt:  j.finished,
	}
	if !j.started.IsZero() {
		st.QueueWaitSec = j.started.Sub(j.submitted).Seconds()
		end := j.finished
		if end.IsZero() {
			end = s.cfg.Now() // still running: elapsed so far
		}
		st.RunSec = end.Sub(j.started).Seconds()
	}
	if e := j.entry; e != nil {
		st.Summary, st.Result, st.Stats = e.summary, e.result, e.stats
	}
	if j.flight != nil {
		st.Completed, st.Total = j.flight.progress()
	} else if e := j.entry; e != nil {
		// No flight to count from: a cache hit or a job recovered from the
		// durable store carries its finished enumeration size directly.
		st.Completed, st.Total = e.total, e.total
	}
	return st
}

// Metrics is a point-in-time snapshot of the server's operational counters.
type Metrics struct {
	QueueDepth           int              `json:"queue_depth"`
	Workers              int              `json:"workers"`
	Draining             bool             `json:"draining"`
	CacheEntries         int              `json:"cache_entries"`
	CacheCapacity        int              `json:"cache_capacity"`
	CacheHits            int64            `json:"cache_hits"`
	CacheHitsByDocument  int64            `json:"cache_hits_by_document"`
	CacheMisses          int64            `json:"cache_misses"`
	CacheEvictions       int64            `json:"cache_evictions"`
	Coalesced            int64            `json:"coalesced"`
	EngineExecutions     int64            `json:"engine_executions"`
	Submitted            int64            `json:"submitted"`
	CombinationsExplored int64            `json:"combinations_explored"`
	CombinationsPruned   int64            `json:"combinations_pruned"`
	ParetoExecutions     int64            `json:"pareto_executions"`
	ParetoFrontierSize   int64            `json:"pareto_frontier_size"`
	SweepPoints          int64            `json:"sweep_points"`
	ShardedExecutions    int64            `json:"sharded_executions"`
	ShardsServed         int64            `json:"shards_served"`
	StoreAppends         int64            `json:"store_appends"`
	StoreBytes           int64            `json:"store_bytes"`
	StoreRecoverySec     float64          `json:"store_recovery_sec"`
	Rejected             map[string]int64 `json:"rejected"`
	Jobs                 map[State]int64  `json:"jobs"`

	// Latency distributions.
	QueueWait HistogramSnapshot            `json:"queue_wait_seconds"`
	ExecTime  HistogramSnapshot            `json:"engine_exec_seconds"`
	HTTP      map[string]HistogramSnapshot `json:"http_request_seconds"`

	// Go runtime health, read at snapshot time.
	Goroutines      int     `json:"goroutines"`
	HeapAllocBytes  uint64  `json:"heap_alloc_bytes"`
	HeapSysBytes    uint64  `json:"heap_sys_bytes"`
	GCCycles        uint32  `json:"gc_cycles"`
	GCPauseTotalSec float64 `json:"gc_pause_total_sec"`

	// Build identity (buildinfo.Read).
	BuildVersion  string `json:"build_version"`
	BuildRevision string `json:"build_revision"`
	BuildGo       string `json:"build_go"`
}

// Metrics snapshots the server counters, including jobs-per-state gauges.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Metrics{
		QueueDepth:           len(s.queue),
		Workers:              s.cfg.Workers,
		Draining:             s.draining,
		CacheEntries:         s.cache.Len(),
		CacheCapacity:        s.cfg.CacheEntries,
		CacheHits:            s.cacheHits.Load(),
		CacheHitsByDocument:  s.docHits.Load(),
		CacheMisses:          s.cacheMisses.Load(),
		CacheEvictions:       s.cache.Evictions(),
		Coalesced:            s.coalesced.Load(),
		EngineExecutions:     s.engineExecs.Load(),
		Submitted:            s.submitted.Load(),
		CombinationsExplored: s.explored.Load(),
		CombinationsPruned:   s.pruned.Load(),
		ParetoExecutions:     s.paretoJobs.Load(),
		ParetoFrontierSize:   s.frontierSize.Load(),
		SweepPoints:          s.sweepPoints.Load(),
		ShardedExecutions:    s.shardedExecs.Load(),
		ShardsServed:         s.shardsServed.Load(),
		Rejected: map[string]int64{
			rejectDraining:        s.rejectedDraining.Load(),
			rejectPayloadTooLarge: s.rejectedPayload.Load(),
			rejectQueueFull:       s.rejectedQueue.Load(),
			rejectRateLimit:       s.rejectedRate.Load(),
		},
		StoreRecoverySec: s.recoverySec,
		Jobs:             make(map[State]int64),
	}
	if s.store != nil {
		m.StoreAppends = s.store.appends.Load()
		m.StoreBytes = s.store.bytes.Load()
	}
	for _, j := range s.jobs {
		m.Jobs[j.state]++
	}
	m.QueueWait = s.queueWaitHist.Snapshot()
	m.ExecTime = s.execHist.Snapshot()
	m.HTTP = make(map[string]HistogramSnapshot)
	s.httpMu.Lock()
	for route, h := range s.httpHists {
		m.HTTP[route] = h.Snapshot()
	}
	s.httpMu.Unlock()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.Goroutines = runtime.NumGoroutine()
	m.HeapAllocBytes = ms.HeapAlloc
	m.HeapSysBytes = ms.HeapSys
	m.GCCycles = ms.NumGC
	m.GCPauseTotalSec = float64(ms.PauseTotalNs) / 1e9

	info := buildinfo.Read()
	m.BuildVersion = info.Version
	m.BuildRevision = info.Revision
	m.BuildGo = info.Go
	return m
}

// httpHist returns (creating on first use) the latency histogram for a
// route pattern.
func (s *Server) httpHist(route string) *histogram {
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	h, ok := s.httpHists[route]
	if !ok {
		h = newHistogram(latencyBuckets())
		s.httpHists[route] = h
	}
	return h
}

// Draining reports whether Close has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Close drains the server: new submissions are rejected, queued and running
// flights are allowed to finish, and Close returns when the worker pool has
// exited. If ctx expires first, every remaining flight is cancelled and
// Close waits for the (prompt) abort before returning ctx.Err().
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.cfg.Logger.Info("server draining")

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cancel()
		s.closeStore()
		return nil
	case <-ctx.Done():
		s.cancel() // aborts in-flight engine executions promptly
		<-done
		s.closeStore()
		return ctx.Err()
	}
}

func (s *Server) closeStore() {
	if s.store != nil {
		if err := s.store.Close(); err != nil {
			s.cfg.Logger.Warn("store close failed", "error", err.Error())
		}
	}
}
