package service

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// postRaw fires one submission and returns the response (caller closes).
func postRaw(t *testing.T, base string, body []byte, clientID string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if clientID != "" {
		req.Header.Set("X-Client-Id", clientID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRateLimitReturns429: with a 1/s limit and burst 1, the second
// submission in the same instant gets 429 with a Retry-After; after the
// bucket refills it is accepted again. Limits are per client key, so a
// distinct X-Client-Id is unaffected.
func TestRateLimitReturns429(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	_, ts := newHTTPServer(t, Config{Workers: 1, RateLimit: 1, RateBurst: 1, Now: clk.Now})
	body := mpeg2Envelope(t)

	resp := postRaw(t, ts.URL, body, "alice")
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("first submission: %d", resp.StatusCode)
	}

	resp = postRaw(t, ts.URL, body, "alice")
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submission: %d, want 429: %s", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("429 Retry-After %q, want \"1\"", ra)
	}
	if !strings.Contains(string(raw), "rate") {
		t.Fatalf("429 body does not explain the rejection: %s", raw)
	}

	// A different client is not affected by alice's bucket.
	resp = postRaw(t, ts.URL, body, "bob")
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("distinct client: %d, want accepted", resp.StatusCode)
	}

	// After the advertised wait the bucket has a token again.
	clk.Advance(time.Second)
	resp = postRaw(t, ts.URL, body, "alice")
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("post-refill submission: %d, want accepted", resp.StatusCode)
	}

	if got := metricValue(t, ts.URL, `seadoptd_rejected_total{reason="rate_limit"}`); got != 1 {
		t.Fatalf("rejected_total{rate_limit} = %d, want 1", got)
	}
}

// TestQueueFullReturns503: when the queue is at capacity, submissions get
// 503 with Retry-After — backpressure, not a client fault — and count under
// the queue_full rejection reason.
func TestQueueFullReturns503(t *testing.T) {
	s, ts := newHTTPServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	s.hookExecute = func(*flight) { <-release }
	defer close(release)

	envelope := func(seed int) []byte {
		body := mpeg2Envelope(t)
		return bytes.Replace(body, []byte(`"seed":2010`), []byte(fmt.Sprintf(`"seed":%d`, seed)), 1)
	}

	// Seed 1 occupies the worker, seed 2 fills the queue, seed 3 overflows.
	for i, seed := range []int{1, 2} {
		resp := postRaw(t, ts.URL, envelope(seed), "")
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: %d", i, resp.StatusCode)
		}
	}
	resp := postRaw(t, ts.URL, envelope(3), "")
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submission: %d, want 503: %s", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("503 Retry-After %q, want \"1\"", ra)
	}
	if got := metricValue(t, ts.URL, `seadoptd_rejected_total{reason="queue_full"}`); got != 1 {
		t.Fatalf("rejected_total{queue_full} = %d, want 1", got)
	}
}

// TestPayloadTooLargeReturns413: bodies over MaxBodyBytes are rejected with
// 413 before any parsing, and counted under payload_too_large.
func TestPayloadTooLargeReturns413(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 1, MaxBodyBytes: 64 << 10})
	resp := postRaw(t, ts.URL, bytes.Repeat([]byte("x"), 128<<10), "")
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submission: %d, want 413: %s", resp.StatusCode, raw)
	}
	if got := metricValue(t, ts.URL, `seadoptd_rejected_total{reason="payload_too_large"}`); got != 1 {
		t.Fatalf("rejected_total{payload_too_large} = %d, want 1", got)
	}
	// A normally-sized submission still goes through.
	resp = postRaw(t, ts.URL, mpeg2Envelope(t), "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("normal submission under a body cap: %d", resp.StatusCode)
	}
}

// TestRejectionMetricsLint: every rejection reason is always exported (zero
// or not), and the whole exposition passes the format lint.
func TestRejectionMetricsLint(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, reason := range rejectReasons {
		series := fmt.Sprintf("seadoptd_rejected_total{reason=%q} 0", reason)
		if !strings.Contains(string(raw), series) {
			t.Errorf("fresh /metrics is missing %s", series)
		}
	}
	for _, name := range []string{"seadoptd_sharded_executions_total 0", "seadoptd_shards_served_total 0"} {
		if !strings.Contains(string(raw), name) {
			t.Errorf("fresh /metrics is missing %s", name)
		}
	}
	if err := LintMetrics(raw); err != nil {
		t.Fatalf("metrics lint: %v", err)
	}
}

// TestRateLimiterBuckets covers the limiter in isolation: burst semantics,
// refill over time and the bounded client table.
func TestRateLimiterBuckets(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	l := newRateLimiter(2, 2, clk.Now)
	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("k"); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, wait := l.allow("k")
	if ok {
		t.Fatal("request beyond burst allowed")
	}
	if wait <= 0 || wait > 500*time.Millisecond {
		t.Fatalf("wait %v, want (0, 500ms] at 2/s", wait)
	}
	clk.Advance(wait)
	if ok, _ := l.allow("k"); !ok {
		t.Fatal("request after advertised wait denied")
	}

	// The client table stays bounded: an insert past the cap evicts the
	// least recently seen client.
	for i := 0; i < rateLimiterMaxClients; i++ {
		l.allow(fmt.Sprintf("client-%d", i))
	}
	clk.Advance(time.Minute) // everyone refills to full
	for i := 0; i < 10; i++ {
		l.allow(fmt.Sprintf("late-%d", i))
	}
	l.mu.Lock()
	n := l.m.Len()
	l.mu.Unlock()
	if n > rateLimiterMaxClients {
		t.Fatalf("limiter holds %d buckets, cap %d", n, rateLimiterMaxClients)
	}
}

// TestRateLimiterCapsClientBurst: a burst of distinct client ids at one
// clock instant, none of whose buckets has refilled, stays within the cap,
// and the clients it evicted come back with a full bucket.
func TestRateLimiterCapsClientBurst(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	l := newRateLimiter(1, 1, clk.Now)
	for i := 0; i < 3*rateLimiterMaxClients; i++ {
		if ok, _ := l.allow(fmt.Sprintf("burst-%d", i)); !ok {
			t.Fatalf("first request of client %d denied", i)
		}
	}
	l.mu.Lock()
	n := l.m.Len()
	l.mu.Unlock()
	if n > rateLimiterMaxClients {
		t.Fatalf("limiter holds %d buckets after a burst of %d ids, cap %d", n, 3*rateLimiterMaxClients, rateLimiterMaxClients)
	}
	if ok, _ := l.allow(fmt.Sprintf("burst-%d", 3*rateLimiterMaxClients-1)); ok {
		t.Error("the most recent client's empty bucket allowed a second request")
	}
	if ok, _ := l.allow("burst-0"); !ok {
		t.Error("an evicted client did not come back with a full bucket")
	}
}

// TestRetryAfterSeconds: the Retry-After header must be a whole positive
// second count — RFC 9110 allows 0, but a 0 invites an immediate retry
// storm, so the renderer rounds up and clamps to at least 1.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{time.Millisecond, 1},
		{999 * time.Millisecond, 1},
		{time.Second, 1},
		{1500 * time.Millisecond, 2},
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}
