package service

import (
	"math"
	"net"
	"net/http"
	"sync"
	"time"
)

// Rejection reason labels shared by the structured logs, the Metrics
// snapshot and the seadoptd_rejected_total{reason=...} series.
const (
	rejectDraining        = "draining"
	rejectPayloadTooLarge = "payload_too_large"
	rejectQueueFull       = "queue_full"
	rejectRateLimit       = "rate_limit"
)

// rejectReasons fixes the rendering order of seadoptd_rejected_total so the
// exposition is byte-stable and every reason is always present.
var rejectReasons = []string{rejectDraining, rejectPayloadTooLarge, rejectQueueFull, rejectRateLimit}

// rateLimiter is a per-client token bucket over the server's injected
// clock: each client key holds up to burst tokens, refilled at rate tokens
// per second; a submission spends one. It is deliberately approximate
// across clients (one client table under one mutex — submissions are not a
// hot path) but exact per client, so tests with a fake clock can assert the
// precise breach point.
type rateLimiter struct {
	mu    sync.Mutex
	rate  float64
	burst float64
	now   func() time.Time
	m     *lru[*bucket]
}

type bucket struct {
	tokens float64
	last   time.Time
}

// rateLimiterMaxClients is a hard cap on the client table. The client
// picks its own X-Client-Id, so the table is an LRU: a burst of new ids
// evicts the least recently seen clients in O(1) each, and a forgotten
// client returns with a full bucket.
const rateLimiterMaxClients = 8192

func newRateLimiter(rate, burst float64, now func() time.Time) *rateLimiter {
	return &rateLimiter{rate: rate, burst: burst, now: now, m: newLRU[*bucket](rateLimiterMaxClients)}
}

// allow spends one token from key's bucket. When the bucket is empty it
// returns false and how long until the next token accrues — the
// Retry-After the HTTP layer surfaces.
func (l *rateLimiter) allow(key string) (bool, time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b, ok := l.m.Get(key)
	if !ok {
		b = &bucket{tokens: l.burst, last: now}
		l.m.Add(key, b)
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(l.burst, b.tokens+dt*l.rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := (1 - b.tokens) / l.rate
	return false, time.Duration(wait * float64(time.Second))
}

// clientKey identifies the submitting client for rate limiting: an explicit
// X-Client-Id header, else the remote address without the ephemeral port.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-Id"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// retryAfterSeconds renders a Retry-After value: whole seconds, rounded up,
// at least 1.
func retryAfterSeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}
