package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"seadopt/internal/ingest"
	"seadopt/internal/taskgraph"
)

// hotEnvelope is a POST /v1/jobs body of the service_hot workload's shape:
// the canonical document of a connected 120-task §V graph, the 4-core
// 3-level shorthand platform and the workload's options, marshaled by
// encoding/json as its clients do.
func hotEnvelope(tb testing.TB) []byte {
	return hotEnvelopes(tb, 1)[0]
}

// hotEnvelopes returns n envelopes of hotEnvelope's shape over its graph,
// with engine seeds 1 to n: n problems with n keys.
func hotEnvelopes(tb testing.TB, n int) [][]byte {
	tb.Helper()
	var doc []byte
	for seed := int64(1); doc == nil; seed++ {
		g, err := taskgraph.Random(taskgraph.DefaultRandomConfig(120), seed)
		if err != nil || ingest.ValidateGraph(g) != nil {
			continue
		}
		if doc, err = g.MarshalJSON(); err != nil {
			tb.Fatal(err)
		}
	}
	bodies := make([][]byte, n)
	for i := range bodies {
		body, err := json.Marshal(struct {
			Format   string            `json:"format"`
			Graph    json.RawMessage   `json:"graph"`
			Platform platformShorthand `json:"platform"`
			Options  ingest.Options    `json:"options"`
		}{"json", doc, platformShorthand{Cores: 4, Levels: 3},
			ingest.Options{SearchMoves: 200, Seed: int64(i + 1), DeadlineSec: taskgraph.RandomDeadline(120) / 2}})
		if err != nil {
			tb.Fatal(err)
		}
		bodies[i] = body
	}
	return bodies
}

// serveJob serves one in-process POST /v1/jobs and returns the response.
func serveJob(h http.Handler, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// BenchmarkServiceJob measures a job submission through Server.Handler, in
// process. cache_hit POSTs, with the durable store on, an envelope whose
// result the cache holds: decoding, the canonical key, the fsync'd journal
// record and the response, with the engine idle. miss POSTs envelopes the
// cache does not hold to a server without workers or store: decoding, the
// key, the graph's build and checks and the queued flight, with no engine
// run and no fsync.
func BenchmarkServiceJob(b *testing.B) {
	b.Run("cache_hit", func(b *testing.B) {
		s, err := NewServer(Config{Workers: 1, StoreDir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_ = s.Close(ctx)
		})
		h := s.Handler()
		body := hotEnvelope(b)
		first := serveJob(h, body)
		var st JobStatus
		if err := json.Unmarshal(first.Body.Bytes(), &st); err != nil {
			b.Fatalf("priming submission: %d %s", first.Code, first.Body)
		}
		waitState(b, s, st.ID, StateDone)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			if rec := serveJob(h, body); rec.Code != http.StatusOK {
				b.Fatalf("status %d, want 200 from the cache: %s", rec.Code, rec.Body)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		s, err := newServer(Config{QueueDepth: b.N})
		if err != nil {
			b.Fatal(err)
		}
		// Without workers Close returns at once.
		b.Cleanup(func() { _ = s.Close(context.Background()) })
		h := s.Handler()
		bodies := hotEnvelopes(b, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for _, body := range bodies {
			if rec := serveJob(h, body); rec.Code != http.StatusAccepted {
				b.Fatalf("status %d, want 202 for a miss: %s", rec.Code, rec.Body)
			}
		}
	})
}
