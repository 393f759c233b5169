package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

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

// TestDistributedPeerFallback: a coordinator whose only peer is
// unreachable falls back to embedded execution of the remote shards — the
// job still finishes with single-node bytes.
func TestDistributedPeerFallback(t *testing.T) {
	_, single := newHTTPServer(t, Config{Workers: 1})
	want, wantEv := runToDone(t, single.URL, mpeg2Envelope(t))

	// A listener that is immediately closed: connections are refused.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	_, coord := newHTTPServer(t, Config{Workers: 1, Peers: []string{deadURL}})
	got, gotEv := runToDone(t, coord.URL, mpeg2Envelope(t))
	assertSameRun(t, "dead peer fallback", got, want, gotEv, wantEv)
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
