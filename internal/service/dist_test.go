package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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

// withOptions splices members into an envelope's options object.
func withOptions(body []byte, members string) []byte {
	return bytes.Replace(body, []byte(`"options":{`), []byte(`"options":{`+members+`,`), 1)
}

// statsStatus returns the HTTP status of a job's /stats endpoint.
func statsStatus(t *testing.T, base, id string) int {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestDistributedScalarMatchesSingleNode: a coordinator with two HTTP peer
// workers returns the same Design bytes and the same progress stream as a
// single-node server for the default scalar job and for an exhaustive one.
// The default job walks ranked, its ranked pass seeds, and it resolves on
// the coordinator: no peer serves a shard, the flight is not counted as
// sharded, and its /stats answers. The exhaustive job goes remote, one
// shard per peer, and its /stats answers 409: engine telemetry is
// per-process.
func TestDistributedScalarMatchesSingleNode(t *testing.T) {
	ranked := mpeg2Envelope(t)
	exhaustive := withOptions(ranked, `"strategy":"exhaustive"`)
	_, single := newHTTPServer(t, Config{Workers: 1})
	want, wantEv := runToDone(t, single.URL, ranked)
	wantEx, wantExEv := runToDone(t, single.URL, exhaustive)

	w1, ts1 := newHTTPServer(t, Config{Workers: 1})
	w2, ts2 := newHTTPServer(t, Config{Workers: 1})
	_, coord := newHTTPServer(t, Config{Workers: 1, Peers: []string{ts1.URL, ts2.URL}})
	served := func() int64 { return w1.Metrics().ShardsServed + w2.Metrics().ShardsServed }

	got, gotEv := runToDone(t, coord.URL, ranked)
	assertSameRun(t, "distributed ranked scalar", got, want, gotEv, wantEv)
	if execs := metricValue(t, coord.URL, "seadoptd_sharded_executions_total"); execs != 0 {
		t.Fatalf("coordinator sharded executions %d after the ranked job, want 0", execs)
	}
	if n := served(); n != 0 {
		t.Fatalf("peers served %d shards for the ranked job, want 0", n)
	}
	if code := statsStatus(t, coord.URL, got.ID); code != http.StatusOK {
		t.Fatalf("ranked job stats: %d, want 200", code)
	}

	got, gotEv = runToDone(t, coord.URL, exhaustive)
	assertSameRun(t, "distributed exhaustive scalar", got, wantEx, gotEv, wantExEv)
	if execs := metricValue(t, coord.URL, "seadoptd_sharded_executions_total"); execs != 1 {
		t.Fatalf("coordinator sharded executions %d, want 1", execs)
	}
	if n := served(); n != 2 {
		t.Fatalf("peers served %d shards, want 2", n)
	}
	if code := statsStatus(t, coord.URL, got.ID); code != http.StatusConflict {
		t.Fatalf("sharded job stats: %d, want 409", code)
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
// workload. The default scalar job resolves on the coordinator; the
// exhaustive one sends three of its four ranges to the peers.
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
	w1, ts1 := newHTTPServer(t, Config{Workers: 1})
	w2, ts2 := newHTTPServer(t, Config{Workers: 1})
	_, coord := newHTTPServer(t, Config{Workers: 1, Shards: 4, Peers: []string{ts1.URL, ts2.URL}})
	for _, leg := range []struct {
		name   string
		body   []byte
		served int64
	}{
		{"four shards", env, 0},
		{"four shards exhaustive", withOptions(env, `"strategy":"exhaustive"`), 3},
	} {
		want, wantEv := runToDone(t, single.URL, leg.body)
		got, gotEv := runToDone(t, coord.URL, leg.body)
		assertSameRun(t, leg.name, got, want, gotEv, wantEv)
		if served := w1.Metrics().ShardsServed + w2.Metrics().ShardsServed; served != leg.served {
			t.Fatalf("%s: peers served %d shards in all, want %d", leg.name, served, leg.served)
		}
	}
}

// TestDistributedNegativeShards: a negative shard count is clamped to 0
// like the other counts, so a coordinator with a peer runs its default plan
// (one embedded shard plus one per peer) rather than panicking the worker.
// The default scalar job resolves on the coordinator and serves no shard;
// an exhaustive scalar job and a Pareto job each send the peer one.
func TestDistributedNegativeShards(t *testing.T) {
	ranked := mpeg2Envelope(t)
	_, single := newHTTPServer(t, Config{Workers: 1})
	w1, ts1 := newHTTPServer(t, Config{Workers: 1})
	coordSrv, coord := newHTTPServer(t, Config{Workers: 1, Shards: -1, Peers: []string{ts1.URL}})
	// served and sharded are the running totals after each job.
	for _, leg := range []struct {
		name            string
		body            []byte
		served, sharded int64
	}{
		{"ranked scalar", ranked, 0, 0},
		{"exhaustive scalar", withOptions(ranked, `"strategy":"exhaustive"`), 1, 1},
		{"pareto", withOptions(ranked, `"mode":"pareto"`), 2, 2},
	} {
		want, wantEv := runToDone(t, single.URL, leg.body)
		got, gotEv := runToDone(t, coord.URL, leg.body)
		assertSameRun(t, "negative shards "+leg.name, got, want, gotEv, wantEv)
		if served := w1.Metrics().ShardsServed; served != leg.served {
			t.Fatalf("%s: peer served %d shards in all, want %d", leg.name, served, leg.served)
		}
		if execs := coordSrv.Metrics().ShardedExecutions; execs != leg.sharded {
			t.Fatalf("%s: coordinator sharded executions %d, want %d", leg.name, execs, leg.sharded)
		}
	}
}

// TestDistributedPeerFallback: a coordinator whose only peer is
// unreachable, or answers a result of the wrong shape, falls back to
// embedded execution of the remote shards — the job still finishes with
// single-node bytes. The scalar legs run exhaustive, since the default
// (ranked) scalar job resolves on the coordinator and never asks the peer;
// the last leg checks that it does not.
func TestDistributedPeerFallback(t *testing.T) {
	ranked := mpeg2Envelope(t)
	scalar := withOptions(ranked, `"strategy":"exhaustive"`)
	pareto := withOptions(ranked, `"mode":"pareto"`)
	_, single := newHTTPServer(t, Config{Workers: 1})
	want, wantEv := runToDone(t, single.URL, scalar)
	wantPareto, wantParetoEv := runToDone(t, single.URL, pareto)
	wantRanked, wantRankedEv := runToDone(t, single.URL, ranked)

	// A listener that is immediately closed: connections are refused.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	deadSrv, coord := newHTTPServer(t, Config{Workers: 1, Peers: []string{deadURL}})
	got, gotEv := runToDone(t, coord.URL, scalar)
	assertSameRun(t, "dead peer fallback", got, want, gotEv, wantEv)
	if execs := deadSrv.Metrics().ShardedExecutions; execs != 1 {
		t.Fatalf("dead peer: coordinator sharded executions %d, want 1", execs)
	}

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
			got, gotEv := runToDone(t, coord.URL, scalar)
			assertSameRun(t, leg.name+" scalar", got, want, gotEv, wantEv)
			got, gotEv = runToDone(t, coord.URL, pareto)
			assertSameRun(t, leg.name+" pareto", got, wantPareto, gotEv, wantParetoEv)
			got, gotEv = runToDone(t, coord.URL, ranked)
			assertSameRun(t, leg.name+" ranked scalar", got, wantRanked, gotEv, wantRankedEv)
			if n := answered.Load(); n != 6 {
				t.Fatalf("the peer answered %d shard requests, want 6 (3 exhaustive scalar, 3 Pareto, none ranked)", n)
			}
		})
	}
}

// TestShardRequestIgnoresThreshold: a coordinator of an older build sends
// its scalar shard requests with a "threshold" member. This build ignores
// the member and walks the range unseeded, so the answer is the one the same
// request gets without it.
func TestShardRequestIgnoresThreshold(t *testing.T) {
	_, peer := newHTTPServer(t, Config{Workers: 1, EngineParallelism: 1})
	enc, err := mpeg2Problem(t, 2010).CanonicalEncoding()
	if err != nil {
		t.Fatal(err)
	}
	post := func(req string) []byte {
		t.Helper()
		body := `{"problem":` + string(enc) + `,"req":` + req + `}`
		resp, err := http.Post(peer.URL+"/internal/v1/shard", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard request %s: %d %s", req, resp.StatusCode, out)
		}
		return out
	}
	want := post(`{"range":{"lo":0,"hi":8}}`)
	if got := post(`{"range":{"lo":0,"hi":8},"threshold":1e-3}`); !bytes.Equal(got, want) {
		t.Fatalf("a threshold changed the shard's answer:\n%s\nvs\n%s", got, want)
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
