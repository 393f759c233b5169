package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"seadopt/internal/ingest"
	"seadopt/internal/registers"
	"seadopt/internal/taskgraph"
)

// submitReference answers a POST /v1/jobs envelope along the build path
// alone: readBody, decodeSubmit's general path (encoding/json and
// ingest.ParseBytes), the platforms, Submit and the handler's answer. It
// never walks the envelope or answers by document.
func submitReference(s *Server, body []byte) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	body, err := s.readBody(r)
	if err != nil {
		httpError(rec, http.StatusBadRequest, err)
		return rec
	}
	st, err := func() (JobStatus, error) {
		req, g, err := decodeSubmit(r, body, true)
		if err != nil {
			return JobStatus{}, err
		}
		p, err := req.problem(s.cfg.DefaultPlatform)
		if err != nil {
			return JobStatus{}, err
		}
		p.Graph = g
		return s.Submit(p, req.Priority)
	}()
	s.answerSubmit(rec, st, err)
	return rec
}

// twinPair is FuzzSubmitByDocumentMatchesReference's pair of servers: one
// answers through Handler, the other through submitReference. Both recover
// one primed journal, run no worker pool (a miss stays queued) and share a
// fixed clock, so equal answers keep them in step: the same job IDs, job
// records and journal bytes.
type twinPair struct {
	name     string
	h        http.Handler
	ref      *Server
	journals [2]string
	offsets  [2]int64
}

// twinNow is the twins' clock.
func twinNow() time.Time { return time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC) }

// newTwinPair primes a server configured as cfg by running every priming
// body to done through its Handler, then boots the twins on copies of its
// journal.
func newTwinPair(tb testing.TB, name string, cfg Config, priming ...[]byte) *twinPair {
	tb.Helper()
	dir := tb.TempDir()
	primeCfg := cfg
	primeCfg.Workers = 1
	primeCfg.StoreDir = filepath.Join(dir, "prime")
	primer, err := NewServer(primeCfg)
	if err != nil {
		tb.Fatal(err)
	}
	h := primer.Handler()
	for _, body := range priming {
		rec := serveJob(h, body)
		var st JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.ID == "" {
			tb.Fatalf("%s: priming %s: %d %s", name, body, rec.Code, rec.Body)
		}
		waitState(tb, primer, st.ID, StateDone)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := primer.Close(ctx); err != nil {
		tb.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(primeCfg.StoreDir, storeJournalName))
	if err != nil {
		tb.Fatal(err)
	}
	pair := &twinPair{name: name}
	for i := range pair.journals {
		c := cfg
		c.StoreDir = filepath.Join(dir, fmt.Sprint("twin", i))
		c.Now = twinNow
		pair.journals[i] = filepath.Join(c.StoreDir, storeJournalName)
		pair.offsets[i] = int64(len(journal))
		if err := os.MkdirAll(c.StoreDir, 0o755); err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(pair.journals[i], journal, 0o644); err != nil {
			tb.Fatal(err)
		}
		s, err := newServer(c)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_ = s.Close(ctx)
		})
		if i == 0 {
			pair.h = s.Handler()
		} else {
			pair.ref = s
		}
	}
	return pair
}

// appended returns the bytes twin i's journal gained since the last call.
func (p *twinPair) appended(t *testing.T, i int) []byte {
	t.Helper()
	f, err := os.Open(p.journals[i])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(p.offsets[i], io.SeekStart); err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	p.offsets[i] += int64(len(data))
	return data
}

// check submits body to both twins and requires the same status,
// Location, response body and journal bytes.
func (p *twinPair) check(t *testing.T, body []byte) {
	t.Helper()
	got, want := serveJob(p.h, body), submitReference(p.ref, body)
	if got.Code != want.Code || got.Header().Get("Location") != want.Header().Get("Location") ||
		!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%s: %q\nhandler:   %d %q %s\nreference: %d %q %s", p.name, body,
			got.Code, got.Header().Get("Location"), got.Body,
			want.Code, want.Header().Get("Location"), want.Body)
	}
	if gotJ, wantJ := p.appended(t, 0), p.appended(t, 1); !bytes.Equal(gotJ, wantJ) {
		t.Fatalf("%s: %q\nhandler journaled   %s\nreference journaled %s", p.name, body, gotJ, wantJ)
	}
}

// graphEnvelope is a format-json envelope around g's canonical document
// with the extra members, already rendered, before the graph.
func graphEnvelope(tb testing.TB, g *taskgraph.Graph, extra string) []byte {
	tb.Helper()
	doc, err := g.MarshalJSON()
	if err != nil {
		tb.Fatal(err)
	}
	return []byte(`{"format":"json",` + extra + `"graph":` + string(doc) + `}`)
}

// escapedGraph is a connected two-task graph whose name and task names
// MarshalJSON escapes (it writes < as \u003c).
func escapedGraph(tb testing.TB, name string) *taskgraph.Graph {
	tb.Helper()
	b := taskgraph.NewBuilder(name, registers.NewInventory())
	x := b.AddTask("<x>", 1)
	y := b.AddTask("y&z", 2)
	b.AddEdge(x, y, 1)
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// indent re-renders a JSON document as jq prints it.
func indent(tb testing.TB, body []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, body, "", "  "); err != nil {
		tb.Fatal(err)
	}
	return append(buf.Bytes(), '\n')
}

// FuzzSubmitByDocumentMatchesReference is submitByDocument's oracle: on
// twin servers, every body gets from Handler the status, Location, answer
// and journal bytes the build path alone gives it. One pair runs the
// default configuration, the other DefaultStrategy exhaustive primed with
// an explicit bnb job, so a by-document key that skipped the server's
// defaults would hit where the build path misses.
func FuzzSubmitByDocumentMatchesReference(f *testing.F) {
	hot := hotEnvelope(f)
	plainName := graphEnvelope(f, escapedGraph(f, "esc"), "")
	escName := graphEnvelope(f, escapedGraph(f, "a<b"), "")
	oneBnB := strings.Replace(oneTask, `{"format":"json",`, `{"format":"json","options":{"strategy":"bnb"},`, 1)
	pairs := []*twinPair{
		newTwinPair(f, "default", Config{}, hot, []byte(oneTask), plainName, escName),
		newTwinPair(f, "exhaustive default", Config{DefaultStrategy: "exhaustive"}, []byte(oneBnB)),
	}

	var env map[string]json.RawMessage
	if err := json.Unmarshal(hot, &env); err != nil {
		f.Fatal(err)
	}
	graph := string(env["graph"])
	graphString, err := json.Marshal(graph)
	if err != nil {
		f.Fatal(err)
	}
	with := func(from, to string) []byte {
		if !bytes.Contains(hot, []byte(from)) {
			f.Fatalf("bench envelope lacks %s", from)
		}
		return bytes.Replace(hot, []byte(from), []byte(to), 1)
	}
	seeds := [][]byte{
		hot,
		indent(f, hot),
		jqEnvelope(f),
		[]byte(oneTask),
		[]byte(oneBnB),
		// Permuted keys and inner whitespace: not canonical, so not by
		// document; the build path still hits.
		[]byte(`{"graph":{"tasks":[{"name":"a","cycles":1,"registers":[]}],"name":"g","registers":[],"edges":[]},"format":"json"}`),
		[]byte(`{"format":"json","graph":{"name":"g", "registers":[],"tasks":[{"name":"a","cycles":1,"registers":[]}],"edges":[]}}`),
		[]byte(strings.Replace(oneTask, `"name":"a"`, `"name":"\u0061"`, 1)),
		// Escaped names: a task name is in the key alone; a graph name
		// with an escape declines; < sent unescaped is not canonical.
		plainName,
		escName,
		bytes.Replace(escName, []byte(`\u003c`), []byte(`<`), -1),
		// Another deadline, platform, priority or option.
		with(`"deadline_sec":`, `"deadline_sec":1`),
		with(`"levels":3`, `"levels":2`),
		with(`{"format":"json",`, `{"format":"json","priority":5,`),
		with(`"seed":1`, `"seed":2`),
		with(`"strategy":""`, `"strategy":"exhaustive"`),
		[]byte(strings.Replace(oneTask, `{"format":"json",`, `{"format":"json","options":{"seed":7},`, 1)),
		[]byte(strings.Replace(oneTask, `{"format":"json",`, `{"format":"json","platform":{"cores":2},`, 1)),
		// A case-folded twin of graph, a second graph, a string graph and
		// an object graph under another format.
		with(`,"platform":`, `,"Graph":{},"platform":`),
		with(`{"format":"json",`, `{"format":"json","Graph":{},`),
		with(`,"platform":`, `,"graph":{},"platform":`),
		with(graph, string(graphString)),
		with(`"format":"json"`, `"format":"dot"`),
		with(`"format":"json"`, `"format":"auto"`),
		with(`"options":{`, `"options":{"nope":1,`),
		with(`"cores":4`, `"cores":0`),
	}
	for _, tc := range httpValidationCases {
		seeds = append(seeds, []byte(tc.body))
	}
	for _, body := range envelopeNearMisses {
		seeds = append(seeds, []byte(body))
	}
	for _, body := range seeds {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, p := range pairs {
			p.check(t, body)
		}
	})
}

// TestCacheHitsByDocument: a bench-shaped envelope resubmitted three times
// is answered by document each time; its jq-indented twin hits through
// Submit. /metrics exports the counter, and the scrape lints clean.
func TestCacheHitsByDocument(t *testing.T) {
	s, ts := newHTTPServer(t, Config{Workers: 1, StoreDir: t.TempDir()})
	hot := hotEnvelope(t)
	first := postJob(t, ts.URL, hot)
	waitJobHTTP(t, ts.URL, first.ID, StateDone)
	before := s.Metrics()
	for range 3 {
		if st := postJob(t, ts.URL, hot); !st.CacheHit || st.Key != first.Key {
			t.Fatalf("resubmission: %+v, want a hit on %s", st, first.Key)
		}
	}
	mid := s.Metrics()
	if hits, byDoc := mid.CacheHits-before.CacheHits, mid.CacheHitsByDocument-before.CacheHitsByDocument; hits != 3 || byDoc != 3 {
		t.Fatalf("three canonical resubmissions moved cache_hits by %d and cache_hits_by_document by %d, want 3 and 3", hits, byDoc)
	}
	if st := postJob(t, ts.URL, indent(t, hot)); !st.CacheHit || st.Key != first.Key {
		t.Fatalf("indented twin: %+v, want a hit on %s", st, first.Key)
	}
	after := s.Metrics()
	if hits, byDoc := after.CacheHits-mid.CacheHits, after.CacheHitsByDocument-mid.CacheHitsByDocument; hits != 1 || byDoc != 0 {
		t.Fatalf("the indented twin moved cache_hits by %d and cache_hits_by_document by %d, want 1 and 0", hits, byDoc)
	}
	if got := metricValue(t, ts.URL, "seadoptd_cache_hits_by_document_total"); got != after.CacheHitsByDocument {
		t.Fatalf("seadoptd_cache_hits_by_document_total = %d, Metrics says %d", got, after.CacheHitsByDocument)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scrape, _ := io.ReadAll(resp.Body)
	if err := LintMetrics(scrape); err != nil {
		t.Fatal(err)
	}

	// A draining server declines by document; the build path answers 503.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if rec := serveJob(s.Handler(), hot); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("canonical resubmission while draining: %d %s, want 503", rec.Code, rec.Body)
	}
	if m := s.Metrics(); m.CacheHitsByDocument != after.CacheHitsByDocument || m.Rejected[rejectDraining] != 1 {
		t.Fatalf("draining moved cache_hits_by_document to %d and rejected{draining} to %d, want %d and 1",
			m.CacheHitsByDocument, m.Rejected[rejectDraining], after.CacheHitsByDocument)
	}
}

// TestCanonicalBytesOfRefusedGraphs: a graph the HTTP decoders refuse is
// refused as its canonical document too, even after an in-process
// submission of the graph itself. Submit's guard keeps such a graph out of
// the cache; without it, the POST would be answered by document.
func TestCanonicalBytesOfRefusedGraphs(t *testing.T) {
	disconnected := func() *taskgraph.Graph {
		b := taskgraph.NewBuilder("apart", registers.NewInventory())
		b.AddTask("a", 1)
		b.AddTask("b", 1)
		return b.MustBuild()
	}
	invalidUTF8 := func() *taskgraph.Graph {
		// MarshalJSON writes both names as "a\ufffd".
		b := taskgraph.NewBuilder("utf8", registers.NewInventory())
		x := b.AddTask("a\xe9", 1)
		y := b.AddTask("a\xe8", 1)
		b.AddEdge(x, y, 0)
		return b.MustBuild()
	}
	for name, g := range map[string]*taskgraph.Graph{"disconnected": disconnected(), "invalid UTF-8": invalidUTF8()} {
		t.Run(name, func(t *testing.T) {
			s, ts := newHTTPServer(t, Config{Workers: 1})
			platform, err := platformShorthand{}.build()
			if err != nil {
				t.Fatal(err)
			}
			if st, err := s.Submit(&ingest.Problem{Graph: g, Platform: platform}, 0); err == nil {
				waitState(t, s, st.ID, StateDone)
			}
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(graphEnvelope(t, g, "")))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("POST of the canonical bytes: %d %s, want 400", resp.StatusCode, raw)
			}
		})
	}
}
