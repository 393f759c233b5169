package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"seadopt/internal/taskgraph"
)

// newHTTPServer boots the service's HTTP API on an ephemeral port.
func newHTTPServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = s.Close(ctx)
	})
	return s, ts
}

// mpeg2Envelope is the JSON job envelope the README walkthrough submits.
func mpeg2Envelope(t testing.TB) []byte {
	t.Helper()
	gj, err := taskgraph.MPEG2().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	env := map[string]any{
		"format":   "json",
		"graph":    json.RawMessage(gj),
		"platform": map[string]int{"cores": 4, "levels": 3},
		"options": map[string]any{
			"deadline_sec":      taskgraph.MPEG2Deadline,
			"stream_iterations": taskgraph.MPEG2Frames,
			"seed":              2010,
		},
	}
	body, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postJob(t *testing.T, base string, body []byte) JobStatus {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/jobs: %d: %s", resp.StatusCode, raw)
	}
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("decoding submit response %s: %v", raw, err)
	}
	return st
}

func getJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitJobHTTP(t *testing.T, base, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st := getJob(t, base, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (%s), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// metricValue scrapes one un-labelled series from /metrics.
func metricValue(t *testing.T, base, name string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9]+)$`)
	m := re.FindSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, body)
	}
	v, err := strconv.ParseInt(string(m[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestEndToEndConcurrentClients is the PR's acceptance criterion over the
// wire: 8 concurrent clients submit the same MPEG-2 problem; every job
// returns byte-identical Design JSON; the cache/single-flight counters
// prove exactly one engine execution; and the SSE stream replays progress
// events in enumeration order.
func TestEndToEndConcurrentClients(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 2})
	body := mpeg2Envelope(t)

	const clients = 8
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, resp.StatusCode, raw)
				return
			}
			var st JobStatus
			if err := json.Unmarshal(raw, &st); err != nil {
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
	var key, streamed string
	for _, id := range ids {
		st := waitJobHTTP(t, ts.URL, id, StateDone)
		// A submission that lands after the one engine execution finished
		// is a cache hit, which has no exploration to replay; stream a job
		// that ran the engine or coalesced onto it.
		if streamed == "" && !st.CacheHit {
			streamed = id
		}
		if key == "" {
			key = st.Key
		} else if st.Key != key {
			t.Fatalf("job %s has key %s, sibling had %s", id, st.Key, key)
		}
		if result == nil {
			result = st.Result
		} else if !bytes.Equal(result, st.Result) {
			t.Fatalf("job %s: result bytes differ from siblings:\n%s\nvs\n%s", id, st.Result, result)
		}
	}
	if execs := metricValue(t, ts.URL, "seadoptd_engine_executions_total"); execs != 1 {
		t.Fatalf("engine executed %d times for %d identical submissions", execs, clients)
	}
	dedup := metricValue(t, ts.URL, "seadoptd_cache_hits_total") + metricValue(t, ts.URL, "seadoptd_coalesced_total")
	if dedup != clients-1 {
		t.Fatalf("deduplicated %d of %d submissions", dedup, clients-1)
	}

	// SSE: the progress stream replays every scaling combination in
	// enumeration order, then a terminal done event.
	if streamed == "" {
		t.Fatal("every submission was a cache hit, yet the engine executed once")
	}
	events, done := readSSE(t, ts.URL, streamed)
	if len(events) == 0 {
		t.Fatal("no SSE progress events")
	}
	for i, ev := range events {
		if ev.Index != i {
			t.Fatalf("SSE event %d carries index %d; out of enumeration order", i, ev.Index)
		}
	}
	if events[len(events)-1].Total != len(events) {
		t.Fatalf("SSE stream has %d events, engine enumerated %d", len(events), events[len(events)-1].Total)
	}
	if done.State != StateDone {
		t.Fatalf("terminal SSE event in state %s", done.State)
	}
	if !bytes.Equal(done.Result, result) {
		t.Fatal("terminal SSE event carries different result bytes")
	}

	// Resubmitting after completion is an immediate cache hit (HTTP 200,
	// not 202) and moves the hit counter.
	hitsBefore := metricValue(t, ts.URL, "seadoptd_cache_hits_total")
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache-hit resubmission returned %d, want 200", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || !st.CacheHit || !bytes.Equal(st.Result, result) {
		t.Fatalf("cache-hit resubmission: state %s, cacheHit %v", st.State, st.CacheHit)
	}
	if got := metricValue(t, ts.URL, "seadoptd_cache_hits_total"); got != hitsBefore+1 {
		t.Fatalf("cache hits %d, want %d", got, hitsBefore+1)
	}
}

// readSSE consumes a job's whole progress stream.
func readSSE(t *testing.T, base, id string) ([]ProgressEvent, JobStatus) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("progress content type %q", ct)
	}
	var (
		events []ProgressEvent
		done   JobStatus
		event  string
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "progress":
				var ev ProgressEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("bad progress payload %q: %v", data, err)
				}
				events = append(events, ev)
			case "done":
				if err := json.Unmarshal([]byte(data), &done); err != nil {
					t.Fatalf("bad done payload %q: %v", data, err)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	return events, done
}

// TestHTTPCancelReturnsPromptly covers DELETE /v1/jobs/{id}: a long-running
// job is canceled over the wire, the response reports the canceled state,
// and the job record agrees.
func TestHTTPCancelReturnsPromptly(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 1})
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(60), 3)
	gj, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	env, _ := json.Marshal(map[string]any{
		"format":   "json",
		"graph":    json.RawMessage(gj),
		"platform": map[string]int{"cores": 6, "levels": 3},
		"options": map[string]any{
			"deadline_sec": taskgraph.RandomDeadline(60),
			"search_moves": 500_000,
			"seed":         3,
		},
	})
	st := postJob(t, ts.URL, env)
	waitJobHTTP(t, ts.URL, st.ID, StateRunning)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("DELETE took %v", elapsed)
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("DELETE: %d: %s", resp.StatusCode, raw)
	}
	var got JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled {
		t.Fatalf("DELETE response state %s, want canceled", got.State)
	}
	if after := getJob(t, ts.URL, st.ID); after.State != StateCanceled {
		t.Fatalf("job record state %s after DELETE", after.State)
	}
	// The canceled job's SSE stream terminates rather than hanging.
	_, done := readSSE(t, ts.URL, st.ID)
	if done.State != StateCanceled {
		t.Fatalf("SSE terminal state %s for canceled job", done.State)
	}
	// Second DELETE is a conflict.
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("second DELETE: %d, want 409", resp2.StatusCode)
	}
}

// TestHTTPRawBodySubmission drives the raw-body path: a DOT document with
// job parameters in the query string, as examples/serve and curl users do.
func TestHTTPRawBodySubmission(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 1})
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(12), 1)
	url := ts.URL + "/v1/jobs?format=dot&cores=2&levels=3&deadline_sec=" +
		fmt.Sprintf("%g", taskgraph.RandomDeadline(12)) + "&seed=1"
	resp, err := http.Post(url, "text/vnd.graphviz", strings.NewReader(g.DOT()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("raw DOT submission: %d: %s", resp.StatusCode, raw)
	}
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	final := waitJobHTTP(t, ts.URL, st.ID, StateDone)
	if len(final.Result) == 0 {
		t.Fatal("raw submission produced no result")
	}
}

// TestHTTPRawJSONWithFormatParam: an explicit ?format= selects raw-body
// mode even under Content-Type: application/json, so a canonical-JSON graph
// document POSTed directly is not mistaken for a job envelope.
func TestHTTPRawJSONWithFormatParam(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 1})
	gj, err := taskgraph.MPEG2().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/jobs?format=json&cores=4&levels=3&deadline_sec=" +
		fmt.Sprintf("%g", taskgraph.MPEG2Deadline) + "&stream_iterations=437&seed=2010"
	resp, err := http.Post(url, "application/json", bytes.NewReader(gj))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("raw JSON graph with ?format=json: %d: %s", resp.StatusCode, raw)
	}
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if final := waitJobHTTP(t, ts.URL, st.ID, StateDone); len(final.Result) == 0 {
		t.Fatal("no result")
	}
}

// oneTask is the smallest valid job envelope.
const oneTask = `{"format":"json","graph":{"name":"g","registers":[],"tasks":[{"name":"a","cycles":1,"registers":[]}],"edges":[]}}`

// httpValidationCases are TestHTTPValidation's submissions and the status
// each must get.
var httpValidationCases = []struct {
	name string
	url  string
	ct   string
	body string
	want int
}{
	{"empty body", "/v1/jobs", "application/json", "", http.StatusBadRequest},
	{"bad envelope", "/v1/jobs", "application/json", `{"format":"json"}`, http.StatusBadRequest},
	{"unknown field", "/v1/jobs", "application/json", `{"grpah":{}}`, http.StatusBadRequest},
	{"cyclic graph", "/v1/jobs", "application/json",
		`{"format":"json","graph":{"name":"c","registers":[],
			  "tasks":[{"name":"a","cycles":1,"registers":[]},{"name":"b","cycles":1,"registers":[]}],
			  "edges":[{"from":0,"to":1,"cycles":0},{"from":1,"to":0,"cycles":0}]}}`, http.StatusBadRequest},
	{"bad platform", "/v1/jobs", "application/json",
		`{"format":"json","graph":{"name":"g","registers":[],"tasks":[{"name":"a","cycles":1,"registers":[]}],"edges":[]},
			  "platform":{"levels":7}}`, http.StatusBadRequest},
	{"oversized platform shorthand", "/v1/jobs", "application/json",
		`{"format":"json","graph":{"name":"g","registers":[],"tasks":[{"name":"a","cycles":1,"registers":[]}],"edges":[]},
			  "platform":{"cores":4194304}}`, http.StatusBadRequest},
	{"oversized platform spec", "/v1/jobs", "application/json",
		`{"format":"json","graph":{"name":"g","registers":[],"tasks":[{"name":"a","cycles":1,"registers":[]}],"edges":[]},
			  "platform":{"types":[{"name":"a","freqs_mhz":[200]}],"cores":[{"type":"a","count":4194304}]}}`, http.StatusBadRequest},
	{"oversized raw-body platform", "/v1/jobs?format=dot&cores=4194304", "text/plain", "digraph g { a -> b; }", http.StatusBadRequest},
	{"raw without format", "/v1/jobs", "text/plain", "???", http.StatusBadRequest},
	{"trailing garbage", "/v1/jobs", "application/json", oneTask + "garbage", http.StatusBadRequest},
	{"two envelopes", "/v1/jobs", "application/json", oneTask + oneTask, http.StatusBadRequest},
	{"extra brace", "/v1/jobs", "application/json", oneTask + "}", http.StatusBadRequest},
	{"trailing newline", "/v1/jobs", "application/json", oneTask + "\n", http.StatusAccepted},
}

func TestHTTPValidation(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 1})
	for _, tc := range httpValidationCases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.url, tc.ct, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				raw, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, raw)
			}
		})
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/j-999999"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job GET: %d", resp.StatusCode)
		}
	}
	t.Run("graph over the task cap", func(t *testing.T) {
		var chain strings.Builder
		chain.WriteString("digraph chain {")
		for i := 0; i < taskgraph.MaxTasks; i++ {
			fmt.Fprintf(&chain, " t%d -> t%d;", i, i+1)
		}
		chain.WriteString(" }")
		resp, err := http.Post(ts.URL+"/v1/jobs?format=dot&cores=2&levels=2", "text/plain", strings.NewReader(chain.String()))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), fmt.Sprintf("cap of %d", taskgraph.MaxTasks)) {
			t.Fatalf("status %d, want 400 naming the task cap: %s", resp.StatusCode, raw)
		}
	})
}

func TestHTTPHealthAndList(t *testing.T) {
	s, ts := newHTTPServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	st := postJob(t, ts.URL, mpeg2Envelope(t))
	waitJobHTTP(t, ts.URL, st.ID, StateDone)
	listResp, err := http.Get(ts.URL + "/v1/jobs?state=done")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Fatalf("list returned %+v", list.Jobs)
	}
	if len(list.Jobs[0].Result) != 0 {
		t.Fatal("list view should elide result payloads")
	}

	// Draining flips healthz to 503.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp2.StatusCode)
	}
}
