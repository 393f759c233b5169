package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"seadopt"
)

// clients is the number of closed-loop client goroutines, and connections.
const clients = 2

// jobStatus is the part of seadoptd's JobStatus the benchmark reads.
type jobStatus struct {
	ID           string          `json:"id"`
	State        string          `json:"state"`
	CacheHit     bool            `json:"cache_hit"`
	Coalesced    bool            `json:"coalesced"`
	Error        string          `json:"error"`
	Result       json.RawMessage `json:"result"`
	QueueWaitSec float64         `json:"queue_wait_sec"`
	RunSec       float64         `json:"run_sec"`
	Stats        json.RawMessage `json:"engine_stats"`
}

// jobOutcome is one job as the client saw it.
type jobOutcome struct {
	spec      jobSpec
	status    jobStatus
	latency   float64 // POST sent → terminal status received
	submit    float64 // POST round trip
	sse       bool    // the job was followed over SSE
	events    int     // SSE progress events
	doneBytes int     // size of the SSE done event's data
	traced    bool
	block     int // the timed phase's block the job ran in
}

// newHTTPClient allows at most one connection per client goroutine.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

// runJob submits one job and, unless the submission was answered from the
// cache, follows its SSE progress stream to the done event.
func runJob(ctx context.Context, client *http.Client, base string, spec jobSpec, tr *tracer, lane int, traced bool) (jobOutcome, error) {
	out := jobOutcome{spec: spec, traced: traced}
	if !traced {
		tr = nil
	}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(spec.body))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return out, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return out, err
	}
	tPost := time.Now()
	out.submit = tPost.Sub(t0).Seconds()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return out, fmt.Errorf("POST %s: %s: %s", spec.key, resp.Status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &out.status); err != nil {
		return out, fmt.Errorf("POST %s: decoding status: %w", spec.key, err)
	}
	root := tr.begin("job "+spec.key, lane, t0)
	tr.record("POST /v1/jobs", out.status.ID, lane, root, t0, tPost)
	if resp.StatusCode == http.StatusAccepted {
		out.sse = true
		if err := followProgress(ctx, client, base, &out, tr, lane, root); err != nil {
			return out, err
		}
	}
	end := time.Now()
	out.latency = end.Sub(t0).Seconds()
	tr.finish(root, out.status.ID, end)
	if out.status.State != "done" {
		return out, fmt.Errorf("job %s (%s) ended %s: %s", out.status.ID, spec.key, out.status.State, out.status.Error)
	}
	return out, nil
}

// followProgress reads the job's SSE stream, counting progress events,
// until the done event, whose status replaces the submit response's.
func followProgress(ctx context.Context, client *http.Client, base string, out *jobOutcome, tr *tracer, lane, root int) error {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+out.status.ID+"/progress", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET progress of %s: %s", out.status.ID, resp.Status)
	}
	r := bufio.NewReaderSize(resp.Body, 64<<10)
	var event string
	var done []byte
	for done == nil {
		line, err := r.ReadBytes('\n')
		if err != nil {
			return fmt.Errorf("SSE stream of %s ended without a done event: %w", out.status.ID, err)
		}
		line = bytes.TrimRight(line, "\n")
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			if event == "done" {
				done = line[len("data: "):]
				continue
			}
			if out.events == 0 {
				tr.record("SSE first event", out.status.ID, lane, root, t0, time.Now())
			}
			out.events++
		}
	}
	io.Copy(io.Discard, r) // the stream ends after done; drain it to reuse the connection
	tr.record("SSE until done", out.status.ID, lane, root, t0, time.Now())
	out.doneBytes = len(done)
	id := out.status.ID
	out.status = jobStatus{}
	if err := json.Unmarshal(done, &out.status); err != nil {
		return fmt.Errorf("decoding done event of %s: %w", id, err)
	}
	return nil
}

// serviceRun is the state of one service workload run.
type serviceRun struct {
	o      options
	gold   golden
	tr     *tracer
	client *http.Client
	d      *daemon
	hs     *hostSpeed
	// block is the current block, unstolen holds each finished block's
	// unstolen share, and ph sums the blocks' times.
	block    int
	unstolen []float64
	ph       phase

	// units is the timed phase's work: blocks of mixedBlock service_mixed
	// graphs, or service_hot blocks.
	units int
	mixed []mixedPair
	hot   []jobSpec
	// primed holds the result bytes of each service_hot corpus job.
	primed [][]byte

	mu       sync.Mutex
	res      result
	jobs     []jobOutcome
	lastDone jobOutcome
}

// record checks a finished job and files it.
func (s *serviceRun) record(out jobOutcome, err error, want []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.res.Attempted++
	if err != nil {
		s.res.fail("%v", err)
		return
	}
	switch {
	case want != nil && !bytes.Equal(out.status.Result, want):
		s.res.fail("%s (job %s): result bytes differ from the job that computed them", out.spec.key, out.status.ID)
	default:
		if err := s.gold.check(s.o.workload, out.spec.key, out.status.Result); err != nil {
			s.res.fail("job %s: %v", out.status.ID, err)
		}
	}
	out.block = s.block
	s.jobs = append(s.jobs, out)
	s.lastDone = out
}

// setup generates the corpus, boots a daemon on a fresh store and, for
// service_hot, primes the cache. The service_mixed corpus is exactly the
// graphs the timed phase submits.
func (s *serviceRun) setup(ctx context.Context, dir string) error {
	var err error
	switch s.o.workload {
	case serviceMixed:
		n := s.units * mixedBlock
		if n > s.o.size.mixedGraphs {
			return fmt.Errorf("%g s of service_mixed submits %d graphs, but digests are recorded for %d", s.o.seconds, n, s.o.size.mixedGraphs)
		}
		if s.mixed, err = mixedCorpus(n); err != nil {
			return err
		}
		for _, p := range s.mixed {
			for _, spec := range []jobSpec{p.cold, p.warm} {
				if !s.gold.has(s.o.workload, spec.key) {
					return fmt.Errorf("no recorded digest for %s %s; run with -update-golden", s.o.workload, spec.key)
				}
			}
		}
	case serviceHot:
		if s.hot, err = hotCorpus(s.o.size.hotGraphs); err != nil {
			return err
		}
	}
	if s.d, err = startDaemon(ctx, s.o.seadoptd, filepath.Join(dir, "store"), s.client); err != nil {
		return err
	}
	if s.o.workload == serviceHot {
		return s.prime(ctx)
	}
	return nil
}

// prime computes every service_hot corpus job, two at a time, and keeps
// their result bytes.
func (s *serviceRun) prime(ctx context.Context) error {
	s.primed = make([][]byte, len(s.hot))
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(s.hot); i += clients {
				spec := s.hot[i]
				if !s.gold.has(s.o.workload, spec.key) {
					errs[c] = fmt.Errorf("no recorded digest for %s %s; run with -update-golden", s.o.workload, spec.key)
					return
				}
				out, err := runJob(ctx, s.client, s.d.base, spec, nil, c+1, false)
				if err == nil {
					err = s.gold.check(s.o.workload, spec.key, out.status.Result)
				}
				if err != nil {
					errs[c] = fmt.Errorf("priming: %w", err)
					return
				}
				s.primed[i] = out.status.Result
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runService runs service_mixed or service_hot against seadoptd.
func runService(ctx context.Context, o options, gold golden, tr *tracer, dir string, w io.Writer) (*result, error) {
	s := &serviceRun{o: o, gold: gold, tr: tr, client: newHTTPClient(), hs: newHostSpeed()}
	defer s.client.CloseIdleConnections()
	// Traced runs alternate traced and untraced blocks, and need at least
	// one of each, to state the tracing overhead.
	minUnits := 1
	if tr != nil {
		minUnits = 2
	}
	s.units = units(o.workload, o.seconds, minUnits)
	var setups []timedOp
	var runDir string
	setupMark := s.hs.mark()
	for i := 0; i < o.size.setups; i++ {
		if s.d != nil {
			if err := s.d.stop(); err != nil {
				return nil, err
			}
			s.d = nil
			if err := os.RemoveAll(runDir); err != nil {
				return nil, err
			}
		}
		runDir = filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		s.hs.sample()
		t0 := time.Now()
		err := s.setup(ctx, runDir)
		if err != nil {
			if s.d != nil {
				s.d.kill()
			}
			return nil, err
		}
		setups = append(setups, timedOp{latency: time.Since(t0).Seconds()})
		tr.record("setup", "", 0, 0, t0, time.Now())
	}
	unstolenOver(setups, s.hs.unstolen(setupMark))
	defer func() {
		if s.d != nil {
			s.d.kill()
		}
		os.RemoveAll(filepath.Join(runDir, "store"))
	}()

	journal := filepath.Join(runDir, "store", "journal.jsonl")
	before, err := s.snapshot(journal)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if o.workload == serviceMixed {
		s.driveMixed(ctx, start)
	} else {
		s.driveHot(ctx, start)
	}
	if ctx.Err() != nil {
		return nil, errStopped
	}
	if s.hs.err != nil {
		return nil, s.hs.err
	}
	after, err := s.snapshot(journal)
	if err != nil {
		return nil, err
	}
	rss, err := s.d.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	res := &s.res
	submissions := after.counters["seadoptd_jobs_submitted_total"] - before.counters["seadoptd_jobs_submitted_total"]
	fmt.Fprintf(w, "%s: %d jobs (%d submissions) in %.2f s\n", o.workload, len(s.jobs), int(submissions), s.ph.wall)
	res.E2E = endToEnd(w, setups, s.timedOps(), s.ph, after.cpu-before.cpu, rss, s.hs)

	if tr != nil {
		layer, err := s.layers(ctx, w, before, after, submissions, runDir)
		if err != nil {
			return nil, err
		}
		res.Layer = layer
	}
	if err := s.d.stop(); err != nil {
		return nil, fmt.Errorf("stopping seadoptd: %w", err)
	}
	s.d = nil
	return res, nil
}

// snapshot is the daemon state the timed phase is measured against.
type snapshot struct {
	cpu          float64
	counters     map[string]float64
	journalBytes int64
}

func (s *serviceRun) snapshot(journal string) (snapshot, error) {
	var sn snapshot
	var err error
	if sn.cpu, err = s.d.cpuSeconds(); err != nil {
		return sn, err
	}
	if sn.counters, err = scrapeMetrics(s.client, s.d.base); err != nil {
		return sn, err
	}
	fi, err := os.Stat(journal)
	if err != nil {
		return sn, err
	}
	sn.journalBytes = fi.Size()
	return sn, nil
}

// inBlocks runs s.units blocks of the timed phase, calling body on every
// client for each block. The clients meet before each block and after the
// last, when no job is in flight; the last to arrive closes the previous
// block's time and steal share, checks the cap, samples the host's speed
// and calls prepare. Traced runs alternate traced and untraced blocks.
func (s *serviceRun) inBlocks(ctx context.Context, start time.Time, prepare func(block int) error, body func(c, block int, traced bool)) {
	gate := newBarrier(clients)
	short := -1 // the block at which the timed phase hit its cap
	var prepErr error
	var blockStart time.Time
	var blockMark cpuStat
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for block := 0; ; block++ {
				run := gate.wait(func() bool {
					if block > 0 {
						unstolen := s.hs.unstolen(blockMark)
						s.ph.add(time.Since(blockStart).Seconds(), unstolen)
						s.unstolen = append(s.unstolen, unstolen)
					}
					switch {
					case ctx.Err() != nil || prepErr != nil || block >= s.units:
						return false
					case overCap(start, s.o.seconds):
						short = block
						return false
					}
					s.hs.sample()
					prepErr = prepare(block)
					s.block = block
					blockMark = s.hs.mark()
					blockStart = time.Now()
					return prepErr == nil
				})
				if !run {
					return
				}
				body(c, block, s.tr != nil && block%2 == 0)
			}
		}(c)
	}
	wg.Wait()
	if prepErr != nil {
		s.record(jobOutcome{}, prepErr, nil)
	}
	if short >= 0 {
		s.res.stoppedShort(short, s.units, "blocks", s.o.seconds)
	}
}

// driveMixed runs the closed loop of service_mixed: within a block, each
// client takes the next graph in seed order and runs its cold job, then its
// warm job.
func (s *serviceRun) driveMixed(ctx context.Context, start time.Time) {
	order := mixedOrder(s.o.seed, len(s.mixed))
	var next atomic.Int64
	s.inBlocks(ctx, start, func(int) error {
		next.Store(0)
		return nil
	}, func(c, block int, traced bool) {
		for ctx.Err() == nil {
			k := int(next.Add(1) - 1)
			if k >= mixedBlock {
				return
			}
			pair := s.mixed[order[block*mixedBlock+k]]
			for _, spec := range []jobSpec{pair.cold, pair.warm} {
				out, err := runJob(ctx, s.client, s.d.base, spec, s.tr, c+1, traced)
				s.record(out, err, nil)
			}
		}
	})
}

// driveHot runs the closed loop of service_hot. A block opens with both
// clients submitting the same never-seen problem together, which the
// daemon coalesces onto one engine execution, followed by hotRounds rounds
// in which each client resubmits primed problems, all cache hits.
func (s *serviceRun) driveHot(ctx context.Context, start time.Time) {
	order := permutation(s.o.seed, len(s.hot))
	pairGate := newBarrier(clients)
	// shared and results are written by one client and read by the other
	// only across a barrier, which orders the accesses.
	var shared jobSpec
	var results [clients][]byte
	s.inBlocks(ctx, start, func(block int) (err error) {
		shared, err = hotCoalesced(s.hot, block)
		return err
	}, func(c, block int, traced bool) {
		out, err := runJob(ctx, s.client, s.d.base, shared, s.tr, c+1, traced)
		results[c] = out.status.Result
		// Both clients' bytes for the shared problem must agree.
		pairGate.wait(func() bool { return true })
		var want []byte
		if c == 1 {
			want = results[0]
		}
		s.record(out, err, want)
		for r := 0; r < s.o.size.hotRounds && ctx.Err() == nil; r++ {
			i := order[(clients*r+c)%len(order)]
			out, err := runJob(ctx, s.client, s.d.base, s.hot[i], s.tr, c+1, traced)
			if err == nil && !out.status.CacheHit {
				err = fmt.Errorf("%s: resubmission was not a cache hit", s.hot[i].key)
			}
			s.record(out, err, s.primed[i])
		}
	})
}

// barrier is a reusable rendezvous of n goroutines. The last to arrive
// evaluates the decision, and every goroutine of that generation returns
// it.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	gen     int
	result  bool
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait(decide func() bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.result = decide()
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
		return b.result
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	return b.result
}

// layers measures the service's per-layer numbers: the telemetry of traced
// jobs, /metrics deltas over the timed phase, restarts on the run's store,
// and the rungs.
func (s *serviceRun) layers(ctx context.Context, w io.Writer, before, after snapshot, submissions float64, runDir string) ([]metric, error) {
	var agg engineAgg
	var svc serviceLayer
	var submit, queue, run, events, doneBytes []float64
	for _, j := range s.jobs {
		if !j.traced {
			continue
		}
		submit = append(submit, j.submit)
		if j.sse {
			events = append(events, float64(j.events))
			doneBytes = append(doneBytes, float64(j.doneBytes))
		}
		// Count each engine execution once: cache hits and coalesced jobs
		// carry the stats of the execution that computed them.
		if j.status.CacheHit || j.status.Coalesced {
			continue
		}
		queue = append(queue, j.status.QueueWaitSec)
		run = append(run, j.status.RunSec)
		if len(j.status.Stats) > 0 {
			var st seadopt.ExploreStats
			if err := json.Unmarshal(j.status.Stats, &st); err != nil {
				return nil, fmt.Errorf("decoding engine stats of %s: %w", j.status.ID, err)
			}
			agg.add(&st)
		}
	}
	delta := func(name string) float64 { return after.counters[name] - before.counters[name] }
	svc.submitP50 = median(submit)
	svc.queueP50, svc.queueP90 = quantile(queue, 0.5), quantile(queue, 0.9)
	svc.runP50, svc.runP90 = quantile(run, 0.5), quantile(run, 0.9)
	svc.sseEventsPerJob = mean(events)
	svc.doneEventBytes = mean(doneBytes)
	svc.cacheHitRatio = ratio(delta("seadoptd_cache_hits_total"), submissions)
	svc.coalescedFrac = ratio(delta("seadoptd_coalesced_total"), submissions)
	svc.engineExecFrac = ratio(delta("seadoptd_engine_executions_total"), submissions)
	svc.journalBytesPerJob = ratio(float64(after.journalBytes-before.journalBytes), submissions)
	fmt.Fprintf(w, "per-layer bases: %d traced jobs, %d engine executions with telemetry, %.0f submissions; cache hits %.0f, coalesced %.0f, engine executions %.0f\n",
		len(submit), agg.execs, submissions, delta("seadoptd_cache_hits_total"), delta("seadoptd_coalesced_total"), delta("seadoptd_engine_executions_total"))

	restart, err := s.restarts(ctx, runDir)
	if err != nil {
		return nil, err
	}
	svc.restartS = restart
	fi, err := os.Stat(filepath.Join(runDir, "store", "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	svc.replayMBps = ratio(float64(fi.Size())/1e6, restart)
	fmt.Fprintf(w, "restart: %.3f s median over %d restarts on a %.1f MB journal\n", restart, s.o.size.restarts, float64(fi.Size())/1e6)

	var in rungInput
	if s.o.workload == serviceMixed {
		in.problem = s.mixed[0].cold.problem
		in.doc = s.mixed[0].cold.doc
	} else {
		in.problem = s.hot[0].problem
		in.doc = s.hot[0].doc
	}
	in.graph, in.platform, in.deadline = in.problem.Graph, in.problem.Platform, in.problem.Options.DeadlineSec
	r, err := measureRungs(ctx, in, s.o.size.rungBatch, s.tr, runDir)
	if err != nil {
		return nil, err
	}
	return layerMetrics(w, &agg, r, svc, tracingOverhead(s.timedOps()), s.hs), nil
}

func (s *serviceRun) timedOps() []timedOp {
	ops := make([]timedOp, len(s.jobs))
	for i, j := range s.jobs {
		ops[i] = timedOp{key: j.spec.key, latency: j.latency, traced: j.traced, unstolen: s.unstolen[j.block]}
	}
	return ops
}

// restarts stops the daemon with SIGTERM and boots it again on the run's
// store, timing each restart until /healthz answers and the last finished
// job is served again, from the replayed journal, with identical bytes. It
// returns the median.
func (s *serviceRun) restarts(ctx context.Context, runDir string) (float64, error) {
	var times []float64
	last := s.lastDone
	for i := 0; i < s.o.size.restarts; i++ {
		if err := s.d.stop(); err != nil {
			return 0, fmt.Errorf("stopping seadoptd for a restart: %w", err)
		}
		s.d = nil
		s.client.CloseIdleConnections()
		t0 := time.Now()
		d, err := startDaemon(ctx, s.o.seadoptd, filepath.Join(runDir, "store"), s.client)
		if err != nil {
			return 0, err
		}
		s.d = d
		out, err := runJob(ctx, s.client, d.base, last.spec, nil, 0, false)
		end := time.Now()
		if err != nil {
			return 0, fmt.Errorf("after restart: %w", err)
		}
		if !out.status.CacheHit || !bytes.Equal(out.status.Result, last.status.Result) {
			return 0, fmt.Errorf("after restart, %s was not served from the journal with identical bytes", last.spec.key)
		}
		times = append(times, end.Sub(t0).Seconds())
		s.tr.record("restart", "", 0, 0, t0, end)
	}
	return median(times), nil
}
