package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"seadopt/internal/mapping"
	"seadopt/internal/taskgraph"
)

// runToDone submits over HTTP, waits for done, and returns the final
// status plus the complete SSE progress stream.
func runToDone(t *testing.T, base string, body []byte) (JobStatus, []ProgressEvent) {
	t.Helper()
	st := postJob(t, base, body)
	final := waitJobHTTP(t, base, st.ID, StateDone)
	events, _ := readSSE(t, base, st.ID)
	return final, events
}

// assertSameRun asserts result bytes and the full progress stream are
// byte-identical between a distributed and a single-node execution.
func assertSameRun(t *testing.T, label string, got, want JobStatus, gotEv, wantEv []ProgressEvent) {
	t.Helper()
	if !bytes.Equal(got.Result, want.Result) {
		t.Fatalf("%s: result bytes differ from single-node:\n%s\nvs\n%s", label, got.Result, want.Result)
	}
	if got.Summary != want.Summary {
		t.Fatalf("%s: summary differs:\n%q\nvs\n%q", label, got.Summary, want.Summary)
	}
	gj, err := json.Marshal(gotEv)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(wantEv)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gj, wj) {
		t.Fatalf("%s: progress stream differs from single-node (%d vs %d events)\n%s\nvs\n%s",
			label, len(gotEv), len(wantEv), gj, wj)
	}
}

// TestDistributedScalarMatchesSingleNode: a coordinator fanning MPEG-2 out
// to two HTTP peer workers returns the same Design bytes and the same
// progress stream as a single-node server, while the shard counters prove
// work actually went remote.
func TestDistributedScalarMatchesSingleNode(t *testing.T) {
	_, single := newHTTPServer(t, Config{Workers: 1})
	want, wantEv := runToDone(t, single.URL, mpeg2Envelope(t))

	w1, ts1 := newHTTPServer(t, Config{Workers: 1})
	w2, ts2 := newHTTPServer(t, Config{Workers: 1})
	_, coord := newHTTPServer(t, Config{Workers: 1, Peers: []string{ts1.URL, ts2.URL}})
	got, gotEv := runToDone(t, coord.URL, mpeg2Envelope(t))
	assertSameRun(t, "distributed scalar", got, want, gotEv, wantEv)

	if execs := metricValue(t, coord.URL, "seadoptd_sharded_executions_total"); execs != 1 {
		t.Fatalf("coordinator sharded executions %d, want 1", execs)
	}
	if served := w1.Metrics().ShardsServed + w2.Metrics().ShardsServed; served != 2 {
		t.Fatalf("peers served %d shards, want 2", served)
	}
	// Sharded flights have no single-process engine telemetry.
	resp, err := http.Get(coord.URL + "/v1/jobs/" + got.ID + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("sharded job stats: %d, want 409", resp.StatusCode)
	}
}

// TestDistributedParetoMatchesSingleNode is the same contract for frontier
// jobs: the merged Pareto frontier is byte-identical to single-node.
func TestDistributedParetoMatchesSingleNode(t *testing.T) {
	body := mpeg2Envelope(t)
	body = bytes.Replace(body, []byte(`"options":{`), []byte(`"options":{"mode":"pareto",`), 1)

	_, single := newHTTPServer(t, Config{Workers: 1})
	want, wantEv := runToDone(t, single.URL, body)
	decodeFrontier(t, want.Result) // sanity: it is a frontier payload

	w1, ts1 := newHTTPServer(t, Config{Workers: 1})
	w2, ts2 := newHTTPServer(t, Config{Workers: 1})
	_, coord := newHTTPServer(t, Config{Workers: 1, Peers: []string{ts1.URL, ts2.URL}})
	got, gotEv := runToDone(t, coord.URL, body)
	assertSameRun(t, "distributed pareto", got, want, gotEv, wantEv)

	if served := w1.Metrics().ShardsServed + w2.Metrics().ShardsServed; served != 2 {
		t.Fatalf("peers served %d shards, want 2", served)
	}
}

// TestDistributedFourShards: an explicit -shards 4 over two peers (ranges
// round-robin onto them) still merges to single-node bytes on a larger
// workload.
func TestDistributedFourShards(t *testing.T) {
	gj, err := taskgraph.MPEG2().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	env, _ := json.Marshal(map[string]any{
		"format":   "json",
		"graph":    json.RawMessage(gj),
		"platform": map[string]int{"cores": 6, "levels": 3},
		"options": map[string]any{
			"deadline_sec":      taskgraph.MPEG2Deadline,
			"stream_iterations": taskgraph.MPEG2Frames,
			"seed":              7,
		},
	})

	_, single := newHTTPServer(t, Config{Workers: 1})
	want, wantEv := runToDone(t, single.URL, env)

	_, ts1 := newHTTPServer(t, Config{Workers: 1})
	_, ts2 := newHTTPServer(t, Config{Workers: 1})
	_, coord := newHTTPServer(t, Config{Workers: 1, Shards: 4, Peers: []string{ts1.URL, ts2.URL}})
	got, gotEv := runToDone(t, coord.URL, env)
	assertSameRun(t, "four shards", got, want, gotEv, wantEv)
}

// TestDistributedNegativeShards: a negative shard count is clamped to 0
// like the other counts, so a coordinator with a peer runs its default plan
// (one embedded shard plus one per peer) rather than panicking the worker.
func TestDistributedNegativeShards(t *testing.T) {
	_, single := newHTTPServer(t, Config{Workers: 1})
	want, wantEv := runToDone(t, single.URL, mpeg2Envelope(t))

	w1, ts1 := newHTTPServer(t, Config{Workers: 1})
	_, coord := newHTTPServer(t, Config{Workers: 1, Shards: -1, Peers: []string{ts1.URL}})
	got, gotEv := runToDone(t, coord.URL, mpeg2Envelope(t))
	assertSameRun(t, "negative shards", got, want, gotEv, wantEv)
	if served := w1.Metrics().ShardsServed; served != 1 {
		t.Fatalf("peer served %d shards, want 1", served)
	}
}

// TestDistributedPeerFallback: a coordinator whose only peer is
// unreachable, or answers a result of the wrong shape, falls back to
// embedded execution of the remote shards — the job still finishes with
// single-node bytes.
func TestDistributedPeerFallback(t *testing.T) {
	_, single := newHTTPServer(t, Config{Workers: 1})
	want, wantEv := runToDone(t, single.URL, mpeg2Envelope(t))
	pareto := bytes.Replace(mpeg2Envelope(t), []byte(`"options":{`), []byte(`"options":{"mode":"pareto",`), 1)
	wantPareto, wantParetoEv := runToDone(t, single.URL, pareto)

	// A listener that is immediately closed: connections are refused.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	_, coord := newHTTPServer(t, Config{Workers: 1, Peers: []string{deadURL}})
	got, gotEv := runToDone(t, coord.URL, mpeg2Envelope(t))
	assertSameRun(t, "dead peer fallback", got, want, gotEv, wantEv)

	// Peers that answer 200 with a result of the wrong shape for the range
	// they were sent, to a scalar and a Pareto job. A malformed mapping sits
	// on every record, claiming a feasible probe, so a merge that took the
	// records as hints would reach it on the frontier members of the peer's
	// ranges; the shape check refuses the result before the merge.
	tasks, cores := taskgraph.MPEG2().N(), 4
	records := func(rng mapping.ShardRange, assign func() []int) *mapping.ShardResult {
		res := &mapping.ShardResult{Records: make([]*mapping.ShardRecord, rng.Hi-rng.Lo)}
		for j := range res.Records {
			res.Records[j] = &mapping.ShardRecord{Idx: rng.Lo + j, Probed: true, ProbeKnown: true, Mapping: assign()}
		}
		return res
	}
	for _, leg := range []struct {
		name   string
		answer func(rng mapping.ShardRange) *mapping.ShardResult
	}{
		{"no result", func(mapping.ShardRange) *mapping.ShardResult { return nil }},
		{"record count", func(rng mapping.ShardRange) *mapping.ShardResult {
			return &mapping.ShardResult{Records: make([]*mapping.ShardRecord, rng.Hi-rng.Lo+1)}
		}},
		{"record index", func(rng mapping.ShardRange) *mapping.ShardResult {
			res := &mapping.ShardResult{Records: make([]*mapping.ShardRecord, rng.Hi-rng.Lo)}
			res.Records[0] = &mapping.ShardRecord{Idx: rng.Hi}
			return res
		}},
		{"short mapping", func(rng mapping.ShardRange) *mapping.ShardResult {
			return records(rng, func() []int { return make([]int, tasks-1) })
		}},
		{"core outside the platform", func(rng mapping.ShardRange) *mapping.ShardResult {
			return records(rng, func() []int {
				m := make([]int, tasks)
				m[tasks-1] = cores
				return m
			})
		}},
		{"negative core", func(rng mapping.ShardRange) *mapping.ShardResult {
			return records(rng, func() []int {
				m := make([]int, tasks)
				m[0] = -1
				return m
			})
		}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			var answered atomic.Int64
			peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				var creq shardCallRequest
				if r.URL.Path != "/internal/v1/shard" || json.NewDecoder(r.Body).Decode(&creq) != nil {
					http.Error(w, "not a shard request", http.StatusBadRequest)
					return
				}
				answered.Add(1)
				writeJSON(w, http.StatusOK, shardCallResponse{Result: leg.answer(creq.Req.Range)})
			}))
			defer peer.Close()
			// Four shards: the peer answers three of the four ranges of
			// each job.
			_, coord := newHTTPServer(t, Config{Workers: 1, Shards: 4, Peers: []string{peer.URL}})
			got, gotEv := runToDone(t, coord.URL, mpeg2Envelope(t))
			assertSameRun(t, leg.name+" scalar", got, want, gotEv, wantEv)
			got, gotEv = runToDone(t, coord.URL, pareto)
			assertSameRun(t, leg.name+" pareto", got, wantPareto, gotEv, wantParetoEv)
			if n := answered.Load(); n != 6 {
				t.Fatalf("the peer answered %d shard requests, want 6", n)
			}
		})
	}
}

// TestDistributedIneligibleJobsRunLocal: sweeps, baselines and sampled
// strategies never shard — they run single-node even on a coordinator.
func TestDistributedIneligibleJobsRunLocal(t *testing.T) {
	_, ts1 := newHTTPServer(t, Config{Workers: 1})
	coordSrv, coord := newHTTPServer(t, Config{Workers: 1, Peers: []string{ts1.URL}})

	body := mpeg2Envelope(t)
	body = bytes.Replace(body, []byte(`"options":{`), []byte(`"options":{"baseline":"reg",`), 1)
	st := postJob(t, coord.URL, body)
	waitJobHTTP(t, coord.URL, st.ID, StateDone)
	if execs := coordSrv.Metrics().ShardedExecutions; execs != 0 {
		t.Fatalf("baseline job sharded %d times, want 0", execs)
	}
}
