package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf8"

	"seadopt/internal/arch"
	"seadopt/internal/buildinfo"
	"seadopt/internal/ingest"
	"seadopt/internal/jsonscan"
	"seadopt/internal/taskgraph"
	"seadopt/internal/trace"
)

// submitRequest is the JSON envelope of POST /v1/jobs. The graph field is
// either an inline canonical-JSON graph object (format "json") or a string
// holding the document in any supported format. The platform field is
// either the shorthand {"cores": C, "levels": L} ARM7 form or a full
// heterogeneous platform spec (an object with a "types" list; see
// ingest.PlatformSpec).
type submitRequest struct {
	// Format of the graph payload: "json", "tgff", "dot"; "" sniffs.
	Format string `json:"format"`
	// Graph is the task graph document.
	Graph json.RawMessage `json:"graph"`
	// Platform selects the MPSoC configuration; absent selects the server's
	// default platform (4 ARM7 cores × Table I unless -platform overrode it).
	Platform json.RawMessage `json:"platform"`
	// Platforms lists EXTRA platforms a mode=sweep submission crosses its
	// deadline sweep with, each in the same shorthand-or-spec syntax as the
	// platform field. Rejected outside sweep mode.
	Platforms []json.RawMessage `json:"platforms"`
	// Options are the result-affecting optimization knobs.
	Options ingest.Options `json:"options"`
	// Priority orders the queue; higher runs first. Default 0.
	Priority int `json:"priority"`
	// raw is a raw-body submission's document as sent (see
	// decodeRawBody); nil for an envelope, whose graph is Graph.
	raw []byte
}

// platformShorthand is the homogeneous {"cores", "levels"} ARM7 form.
type platformShorthand struct {
	// Cores is the MPSoC core count (default 4).
	Cores int `json:"cores"`
	// Levels is the DVS level-table size: 2, 3 or 4 (default 3).
	Levels int `json:"levels"`
}

func (p platformShorthand) build() (*arch.Platform, error) {
	if p.Cores == 0 {
		p.Cores = 4
	}
	if p.Levels == 0 {
		p.Levels = 3
	}
	table, err := arch.ARM7LevelsFor(p.Levels)
	if err != nil {
		return nil, err
	}
	return arch.NewPlatform(p.Cores, table)
}

// buildPlatform resolves the request's platform field: absent → the server
// default; an object with a "types" key → a full heterogeneous spec; any
// other object → the ARM7 shorthand.
func (req *submitRequest) buildPlatform(fallback *arch.Platform) (*arch.Platform, error) {
	raw := req.Platform
	if len(raw) == 0 || string(raw) == "null" {
		if fallback != nil {
			return fallback, nil
		}
		return platformShorthand{}.build()
	}
	return buildOnePlatform(raw)
}

// buildOnePlatform resolves one platform document: an object with a "types"
// key → a full heterogeneous spec; any other object → the ARM7 shorthand.
func buildOnePlatform(raw json.RawMessage) (*arch.Platform, error) {
	var probe struct {
		Types json.RawMessage `json:"types"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return nil, fmt.Errorf("decoding platform: %w", err)
	}
	if probe.Types != nil {
		return ingest.ParsePlatformSpec(raw)
	}
	var short platformShorthand
	if err := ingest.DecodeStrict(raw, &short); err != nil {
		return nil, fmt.Errorf("decoding platform: %w (want {\"cores\",\"levels\"} or a full spec with \"types\")", err)
	}
	return short.build()
}

// buildSweepPlatforms resolves the envelope's extra sweep platforms.
func (req *submitRequest) buildSweepPlatforms() ([]*arch.Platform, error) {
	if len(req.Platforms) == 0 {
		return nil, nil
	}
	out := make([]*arch.Platform, len(req.Platforms))
	for i, raw := range req.Platforms {
		p, err := buildOnePlatform(raw)
		if err != nil {
			return nil, fmt.Errorf("platforms[%d]: %w", i, err)
		}
		out[i] = p
	}
	return out, nil
}

// problem builds the request's platforms into the Problem it submits, all
// but the graph.
func (req *submitRequest) problem(fallback *arch.Platform) (*ingest.Problem, error) {
	platform, err := req.buildPlatform(fallback)
	if err != nil {
		return nil, err
	}
	sweepPlatforms, err := req.buildSweepPlatforms()
	if err != nil {
		return nil, err
	}
	return &ingest.Problem{Platform: platform, SweepPlatforms: sweepPlatforms, Options: req.Options}, nil
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs               submit a job (JSON envelope, or a raw
//	                              TGFF/DOT/JSON body with query params)
//	GET    /v1/jobs               list jobs
//	GET    /v1/jobs/{id}          job status + result
//	DELETE /v1/jobs/{id}          cancel
//	GET    /v1/jobs/{id}/progress Server-Sent-Events progress stream
//	GET    /v1/jobs/{id}/stats    engine telemetry (phase timings, counters)
//	GET    /v1/jobs/{id}/trace    worker-timeline Chrome trace (perfetto)
//	GET    /healthz               liveness/readiness + build info
//	GET    /metrics               Prometheus text metrics
//
// Every request is instrumented: it gets an X-Request-Id, its latency lands
// in the per-route histogram, and it is logged through Config.Logger.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/progress", s.handleProgress)
	mux.HandleFunc("GET /v1/jobs/{id}/stats", s.handleStats)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Peer-to-peer distributed exploration (see dist.go): workers execute
	// shard ranges for coordinators.
	mux.HandleFunc("POST /internal/v1/shard", s.handleShard)
	return s.instrument(mux)
}

// instrument wraps the mux with request IDs, per-route latency histograms
// and structured request logs. The route label is the mux pattern (not the
// raw path), so path parameters don't explode the label space.
func (s *Server) instrument(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := fmt.Sprintf("r-%06d", s.reqSeq.Add(1))
		w.Header().Set("X-Request-Id", reqID)
		route := "none"
		if _, pattern := mux.Handler(r); pattern != "" {
			route = pattern
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := s.cfg.Now()
		mux.ServeHTTP(sw, r)
		dur := s.cfg.Now().Sub(start).Seconds()
		s.httpHist(route).Observe(dur)
		s.cfg.Logger.Info("http request",
			"request_id", reqID, "method", r.Method, "route", route,
			"path", r.URL.Path, "status", sw.code, "duration_sec", dur)
	})
}

// statusWriter captures the response code for the request log. It forwards
// Flush so SSE streaming keeps working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.limiter != nil {
		if ok, wait := s.limiter.allow(clientKey(r)); !ok {
			s.rejectedRate.Add(1)
			retry := retryAfterSeconds(wait)
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			s.cfg.Logger.Warn("submission rejected",
				"reason", rejectRateLimit, "client", clientKey(r), "retry_after_sec", retry)
			httpError(w, http.StatusTooManyRequests,
				fmt.Errorf("client submission rate above %.3g/s; retry after %ds", s.cfg.RateLimit, retry))
			return
		}
	}
	body, err := s.readBody(r)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.rejectedPayload.Add(1)
			s.cfg.Logger.Warn("submission rejected",
				"reason", rejectPayloadTooLarge, "limit_bytes", mbe.Limit)
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.submitBody(r, body)
	s.answerSubmit(w, st, err)
}

// answerSubmit writes a submission's answer: the job's status, 200 when
// the result cache answered it and 202 otherwise, or the error. Draining
// and a full queue answer 503; every other error is the client's, 400.
func (s *Server) answerSubmit(w http.ResponseWriter, st JobStatus, err error) {
	switch {
	case errors.Is(err, ErrDraining):
		s.rejectedDraining.Add(1)
		s.cfg.Logger.Warn("submission rejected", "reason", rejectDraining)
		httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrQueueFull):
		// Backpressure, not a client fault: the queue will drain, so
		// 503 + Retry-After tells well-behaved clients to come back.
		s.rejectedQueue.Add(1)
		w.Header().Set("Retry-After", "1")
		s.cfg.Logger.Warn("submission rejected",
			"reason", rejectQueueFull, "queue_depth", s.cfg.QueueDepth)
		httpError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		httpError(w, http.StatusBadRequest, err)
	default:
		w.Header().Set("Location", "/v1/jobs/"+st.ID)
		code := http.StatusAccepted
		if st.State == StateDone {
			code = http.StatusOK // served from the result cache
		}
		writeJSON(w, code, st)
	}
}

// maxBodyPresize caps the buffer readBody reserves from a submission's
// Content-Length, so a client cannot make the server reserve memory for a
// body it never sends. A longer body grows the buffer as it arrives.
const maxBodyPresize = 1 << 20

// readBody caps submissions at Config.MaxBodyBytes (16 MiB by default); a
// task graph bigger than that is a mistake, not a workload. Oversized
// bodies surface the *http.MaxBytesError so the caller can answer 413. The
// buffer is sized from Content-Length, up to maxBodyPresize, with the
// bytes.MinRead of slack that lets the final read see EOF without growing.
func (s *Server) readBody(r *http.Request) ([]byte, error) {
	size := int64(0)
	if r.ContentLength > 0 {
		size = min(r.ContentLength, maxBodyPresize)
	}
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	if _, err := buf.ReadFrom(http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes)); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, mbe
		}
		return nil, fmt.Errorf("reading request body: %w", err)
	}
	if buf.Len() == 0 {
		return nil, fmt.Errorf("empty request body; POST a job envelope or a task-graph document")
	}
	return buf.Bytes(), nil
}

// submitBody submits the job a POST /v1/jobs body describes. An envelope
// that decodeEnvelope walks is first offered to submitByDocument, which
// answers a cache hit from the graph document as sent. When it does not
// answer, the document is read in place (readGraph). Every envelope the
// walk or the reader declines, and every raw body, takes decodeSubmit's
// general path. All three end in Submit's admission.
func (s *Server) submitBody(r *http.Request, body []byte) (JobStatus, error) {
	envelope := isEnvelope(r, body)
	if envelope {
		if req, doc := decodeEnvelope(body); req != nil {
			// A platform error waits until the graph has been read: the
			// general path reports a graph error first.
			p, perr := req.problem(s.cfg.DefaultPlatform)
			if perr == nil {
				if st, err := s.submitByDocument(p, doc, req.Priority); !errors.Is(err, errDeclined) {
					return st, err
				}
			}
			if g := readGraph(doc); g != nil {
				if perr != nil {
					return JobStatus{}, perr
				}
				p.Graph = g
				return s.Submit(p, req.Priority)
			}
		}
	}
	req, g, err := decodeSubmit(r, body, envelope)
	if err != nil {
		return JobStatus{}, err
	}
	p, err := req.problem(s.cfg.DefaultPlatform)
	if err != nil {
		return JobStatus{}, err
	}
	p.Graph = g
	return s.Submit(p, req.Priority)
}

// submitByDocument answers a walked envelope whose problem the result
// cache holds without reading, building, validating or re-marshaling its
// graph. The key is ingest's DocumentEncoding over the graph document as
// sent, after the server's defaults; the job records the document's first
// member, "name", which a canonical document holds as a plain string.
//
// A hit is the answer the build path gives. The key equals a cached key
// only if the document is G.MarshalJSON() byte for byte for the graph G
// behind that key, with equal platforms and options (see
// ingest.Problem.DocumentEncoding). Submit admitted G only if G validates
// and its names are valid UTF-8 (checkGraph), so readGraph builds from
// that document a graph with G's names and structure: it validates,
// re-marshals to the same bytes and so has the same key and name, and
// Submit serves the same hit. Every other outcome (a name that is not a
// plain string, a platform or option error, a miss, draining) returns
// errDeclined with nothing recorded, and the build path runs on the
// original bytes. Once the key hits, this path owns the outcome, a failed
// journal append included. A miss keeps nothing: the build path hashes the
// graph it built and runs all of checkGraph, so every admitted graph passes
// the one guard this argument rests on.
func (s *Server) submitByDocument(p *ingest.Problem, doc []byte, priority int) (JobStatus, error) {
	name, ok := documentName(doc)
	if !ok {
		return JobStatus{}, errDeclined
	}
	defaulted := *p
	defaulted.Options, _ = s.applyDefaults(p.Options)
	enc, err := defaulted.DocumentEncoding(doc)
	if err != nil {
		return JobStatus{}, errDeclined
	}
	return s.admit(nil, ingest.EncodingKey(enc), enc, name, priority)
}

// documentName returns the graph name of a canonical graph document: its
// first member, "name", when that is a string jsonscan reads in place
// (printable ASCII, no escapes).
func documentName(doc []byte) (string, bool) {
	s := jsonscan.New(doc)
	if !s.Object() || string(s.Key()) != "name" {
		return "", false
	}
	name := s.Text()
	return string(name), s.OK()
}

// readGraph reads a walked envelope's graph document with
// taskgraph.FromJSON and validates it, as the general path parses a JSON
// graph. It returns nil when the graph fails, and the general path then
// reports why.
func readGraph(doc []byte) *taskgraph.Graph {
	g, err := taskgraph.FromJSON(doc)
	if err != nil || ingest.ValidateGraph(g) != nil {
		return nil
	}
	return g
}

// isEnvelope reports whether a submission is a JSON envelope rather than a
// raw task-graph document with the job parameters in the query string
// (?format=dot&cores=4&...): a JSON Content-Type, or none and a body
// opening with '{'. An explicit ?format= always selects raw-body mode,
// whatever the Content-Type: a canonical-JSON graph POSTed with
// ?format=json must not be mistaken for an envelope.
func isEnvelope(r *http.Request, body []byte) bool {
	if r.URL.Query().Get("format") != "" {
		return false
	}
	ct := r.Header.Get("Content-Type")
	return strings.Contains(ct, "json") || (ct == "" && len(body) > 0 && body[0] == '{')
}

// decodeSubmit is the general decoder of a submission, for every envelope
// the one-pass path declines and every raw body: encoding/json decodes an
// envelope and copies its graph out, decodeRawBody decodes a raw body, and
// ingest.ParseBytes parses and validates the graph document.
func decodeSubmit(r *http.Request, body []byte, envelope bool) (*submitRequest, *taskgraph.Graph, error) {
	var req *submitRequest
	if envelope {
		req = new(submitRequest)
		if err := ingest.DecodeStrict(body, req); err != nil {
			return nil, nil, fmt.Errorf("decoding job envelope: %w (raw-body submissions need ?format=)", err)
		}
		if len(req.Graph) == 0 {
			return nil, nil, fmt.Errorf("job envelope is missing the graph field")
		}
	} else {
		var err error
		if req, err = decodeRawBody(r, body); err != nil {
			return nil, nil, err
		}
	}
	doc, format, err := req.graphDocument()
	if err != nil {
		return nil, nil, err
	}
	g, err := ingest.ParseBytes(format, doc)
	if err != nil {
		return nil, nil, err
	}
	return req, g, nil
}

// decodeEnvelope walks a JSON envelope once, skipping the value of every
// member, and returns the request without its graph and the graph
// member's bytes as sent. It splices {} over the graph and decodes the
// rest, a few hundred bytes, with ingest.DecodeStrict, so unknown fields,
// key case folding, the options, platform and priority and trailing data
// stay encoding/json's decisions, and it applies graphDocument's format
// rule for an object graph. It does not read the graph: submitBody first
// looks the document up in the result cache.
//
// It declines, returning nil, when a top-level key has a backslash or a
// non-ASCII byte, when a key other than "graph" equals "graph" ignoring
// case, when "graph" appears twice or is not an object, and when any later
// step fails.
func decodeEnvelope(body []byte) (*submitRequest, []byte) {
	s := jsonscan.New(body)
	start, end := -1, 0
	for more := s.Object(); more; more = s.More('}') {
		switch key := s.Key(); {
		case string(key) == "graph" && start < 0:
			s.SkipSpace()
			start = s.Offset()
			s.Skip()
			end = s.Offset()
		case bytes.EqualFold(key, []byte("graph")):
			return nil, nil
		default:
			s.Skip()
		}
	}
	if !s.OK() || start < 0 || body[start] != '{' {
		return nil, nil
	}
	rest := make([]byte, 0, len(body)-(end-start)+2)
	rest = append(append(append(rest, body[:start]...), "{}"...), body[end:]...)
	var req submitRequest
	if ingest.DecodeStrict(rest, &req) != nil || string(req.Graph) != "{}" {
		return nil, nil
	}
	if req.Format != "" && req.Format != "auto" && req.Format != "json" {
		return nil, nil
	}
	return &req, body[start:end]
}

// decodeRawBody decodes a raw-body submission: the body is the graph
// document, and the query string carries the job parameters.
func decodeRawBody(r *http.Request, body []byte) (*submitRequest, error) {
	q := r.URL.Query()
	req := &submitRequest{Format: q.Get("format"), raw: body}
	intq := func(name string, dst *int) error {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("query param %s=%q is not an integer", name, v)
			}
			*dst = n
		}
		return nil
	}
	// The parameters are checked in a fixed order, so a query with several
	// malformed ones always names the same one.
	var short platformShorthand
	for _, param := range []struct {
		name string
		dst  *int
	}{
		{"cores", &short.Cores},
		{"levels", &short.Levels},
		{"stream_iterations", &req.Options.StreamIterations},
		{"search_moves", &req.Options.SearchMoves},
		{"sample_budget", &req.Options.SampleBudget},
		{"priority", &req.Priority},
	} {
		if err := intq(param.name, param.dst); err != nil {
			return nil, err
		}
	}
	if short != (platformShorthand{}) {
		enc, err := json.Marshal(short)
		if err != nil {
			return nil, err
		}
		req.Platform = enc
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("query param seed=%q is not an integer", v)
		}
		req.Options.Seed = n
	}
	for _, param := range []struct {
		name string
		dst  *float64
	}{
		{"ser", &req.Options.SER},
		{"deadline_sec", &req.Options.DeadlineSec},
	} {
		if v := q.Get(param.name); v != "" {
			x, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("query param %s=%q is not a number", param.name, v)
			}
			*param.dst = x
		}
	}
	req.Options.Baseline = q.Get("baseline")
	req.Options.Strategy = q.Get("strategy")
	req.Options.Mode = q.Get("mode")
	req.Options.Objectives = q.Get("objectives")
	// Sweep-mode parameters: a comma-separated deadline list, the per-point
	// reduction, and (sets containing commas themselves) semicolon-separated
	// objective sets.
	req.Options.SweepPointMode = q.Get("sweep_point_mode")
	if v := q.Get("sweep_deadlines"); v != "" {
		for _, part := range strings.Split(v, ",") {
			x, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return nil, fmt.Errorf("query param sweep_deadlines entry %q is not a number", part)
			}
			req.Options.SweepDeadlines = append(req.Options.SweepDeadlines, x)
		}
	}
	if v := q.Get("sweep_objective_sets"); v != "" {
		req.Options.SweepObjectiveSets = strings.Split(v, ";")
	}
	return req, nil
}

// graphDocument resolves the submission's graph to document bytes and a
// format. A raw body is the document (see coerceUTF8). In an envelope, a
// JSON string is a text document in any format, an object is the
// canonical JSON graph.
func (req *submitRequest) graphDocument() ([]byte, ingest.Format, error) {
	doc := []byte(req.Graph)
	if req.raw != nil {
		doc = coerceUTF8(req.raw)
	} else if len(doc) > 0 && doc[0] == '"' {
		var text string
		if err := json.Unmarshal(doc, &text); err != nil {
			return nil, "", fmt.Errorf("decoding graph string: %w", err)
		}
		doc = []byte(text)
	} else if req.Format != "" && req.Format != "json" && req.Format != "auto" {
		return nil, "", fmt.Errorf("format %q needs the graph as a string, got a JSON object", req.Format)
	}
	if req.Format == "" || req.Format == "auto" {
		f, err := ingest.Detect(doc)
		if err != nil {
			return nil, "", err
		}
		return doc, f, nil
	}
	f, err := ingest.ParseFormat(req.Format)
	if err != nil {
		return nil, "", err
	}
	return doc, f, nil
}

// coerceUTF8 returns a raw body as the parsers see it: valid UTF-8 as it
// is, and otherwise a copy with each byte that does not start a valid
// UTF-8 sequence replaced by U+FFFD. That is what a JSON string round trip
// does (json.Marshal, then json.Unmarshal), so a raw body decodes as the
// same document sent in an envelope's graph string would, and no graph a
// parser builds from it has a name that is not valid UTF-8 (which Submit
// refuses). bytes.ToValidUTF8 would replace a run of such bytes at once,
// merging names that differ in the run's length.
func coerceUTF8(b []byte) []byte {
	if utf8.Valid(b) {
		return b
	}
	out := make([]byte, 0, len(b)+len(b)/2)
	for len(b) > 0 {
		r, size := utf8.DecodeRune(b)
		if r == utf8.RuneError && size == 1 {
			out = utf8.AppendRune(out, utf8.RuneError)
		} else {
			out = append(out, b[:size]...)
		}
		b = b[size:]
	}
	return out
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	if state := r.URL.Query().Get("state"); state != "" {
		filtered := jobs[:0]
		for _, j := range jobs {
			if string(j.State) == state {
				filtered = append(filtered, j)
			}
		}
		jobs = filtered
	}
	// The list view elides result and telemetry payloads; fetch a single
	// job (or its /stats) for those.
	for i := range jobs {
		jobs[i].Result = nil
		jobs[i].Summary = ""
		jobs[i].Stats = nil
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, err := s.Job(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrNotFound):
		httpError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrFinished):
		httpError(w, http.StatusConflict, err)
	case err != nil:
		httpError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, st)
	}
}

// handleProgress streams a job's exploration progress as Server-Sent
// Events: one "progress" event per scaling combination, in enumeration
// order (replaying from the start for late subscribers), then a single
// terminal "done" event carrying the job's final status.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	watcher, err := s.Watch(id)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("response writer does not support streaming"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	for {
		ev, ok := watcher.Next(r.Context())
		if !ok {
			break
		}
		data, err := json.Marshal(ev)
		if err != nil {
			break
		}
		fmt.Fprintf(w, "event: progress\ndata: %s\n\n", data)
		flusher.Flush()
	}
	if r.Context().Err() != nil {
		return // client went away; no terminal event to deliver
	}
	if st, err := s.Job(id); err == nil {
		data, err := json.Marshal(st)
		if err == nil {
			fmt.Fprintf(w, "event: done\ndata: %s\n\n", data)
			flusher.Flush()
		}
	}
}

// handleStats serves a finished job's engine-telemetry snapshot. Jobs that
// have not produced one yet (queued/running) answer 409; jobs that never
// will (canceled/failed) also 409, with the state in the message.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.Job(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	if st.Stats == nil {
		httpError(w, http.StatusConflict,
			fmt.Errorf("job %s has no engine stats (state %s)", st.ID, st.State))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": st.ID, "state": st.State, "engine_stats": st.Stats,
	})
}

// handleTrace serves a finished job's worker timeline as a Chrome trace
// (load it at https://ui.perfetto.dev): one row per engine worker plus an
// events row for incumbent updates and prunes.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	st, err := s.Job(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	if st.Stats == nil {
		httpError(w, http.StatusConflict,
			fmt.Errorf("job %s has no engine stats to trace (state %s)", st.ID, st.State))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", st.ID+"-trace.json"))
	w.WriteHeader(http.StatusOK)
	_ = trace.WriteExploration(w, "seadopt exploration: "+st.Graph+" ("+st.ID+")", st.Stats)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.Draining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"status": status, "build": buildinfo.Read()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	renderMetrics(w, s.Metrics())
}

// writeJSON renders responses compactly: an embedded result payload must
// reach every client byte-identically, whether it rides a job GET, a submit
// response or the SSE terminal event, so no path may re-indent it.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
