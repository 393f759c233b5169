package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"seadopt"
	"seadopt/internal/service"
)

// TestDaemonMetricsExposition is the observability integration check: boot
// a real daemon with JSON logging and a durable store, run one job through
// it, then validate the full /metrics scrape with the strict exposition
// parser, check that a cache hit grows the journal by under 1 KiB, and
// fetch the job's stats and worker-timeline trace. CI runs this step
// race-enabled.
func TestDaemonMetricsExposition(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	store := t.TempDir()
	go func() {
		done <- run(ctx,
			[]string{"-addr", "127.0.0.1:0", "-workers", "1", "-log-format", "json", "-drain-timeout", "30s",
				"-store", store},
			func(addr string) { addrCh <- addr })
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}
	defer func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("daemon exit: %v", err)
			}
		case <-time.After(time.Minute):
			t.Error("daemon failed to drain and exit")
		}
	}()

	// Health includes the build identity.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string         `json:"status"`
		Build  map[string]any `json:"build"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Build["go"] == "" {
		t.Fatalf("healthz: %+v", health)
	}

	// Run one job to completion so the engine histograms have samples.
	gj, err := seadopt.MPEG2().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	env, _ := json.Marshal(map[string]any{
		"format":   "json",
		"graph":    json.RawMessage(gj),
		"platform": map[string]int{"cores": 4, "levels": 3},
		"options": map[string]any{
			"deadline_sec":      seadopt.MPEG2Deadline,
			"stream_iterations": seadopt.MPEG2Frames,
			"seed":              2026,
		},
	})
	presp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(presp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		jresp, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var js struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		err = json.NewDecoder(jresp.Body).Decode(&js)
		jresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if js.State == "done" {
			break
		}
		if js.State == "failed" || js.State == "canceled" {
			t.Fatalf("job ended %s: %s", js.State, js.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", js.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The full scrape must be valid Prometheus text format, with the three
	// latency histograms, the journal series and the build-info series
	// present.
	scrape := scrapeMetrics(t, base)
	for _, want := range []string{
		"# TYPE seadoptd_job_queue_wait_seconds histogram",
		"# TYPE seadoptd_engine_exec_seconds histogram",
		"# TYPE seadoptd_http_request_duration_seconds histogram",
		"# TYPE seadoptd_store_appends_total counter",
		"# TYPE seadoptd_store_bytes_total counter",
		"# TYPE seadoptd_store_recovery_seconds gauge",
		"seadoptd_build_info{",
	} {
		if !strings.Contains(string(scrape), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// A cache hit is journaled by key: one small record.
	hresp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	var hit struct {
		CacheHit bool `json:"cache_hit"`
	}
	err = json.NewDecoder(hresp.Body).Decode(&hit)
	hresp.Body.Close()
	if err != nil || !hit.CacheHit {
		t.Fatalf("resubmission: cache hit %v, error %v", hit.CacheHit, err)
	}
	after := scrapeMetrics(t, base)
	appends := metricValue(t, after, "seadoptd_store_appends_total") - metricValue(t, scrape, "seadoptd_store_appends_total")
	grew := metricValue(t, after, "seadoptd_store_bytes_total") - metricValue(t, scrape, "seadoptd_store_bytes_total")
	if appends != 1 || grew <= 0 || grew >= 1024 {
		t.Errorf("cache hit appended %v records of %v bytes; want one record under 1 KiB", appends, grew)
	}

	// Per-job engine stats and the perfetto trace are served.
	sresp, err := http.Get(base + "/v1/jobs/" + st.ID + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		EngineStats struct {
			WallNs int64 `json:"wall_ns"`
			Combos struct {
				Total int64 `json:"total"`
			} `json:"combinations"`
			Workers []json.RawMessage `json:"workers"`
		} `json:"engine_stats"`
	}
	err = json.NewDecoder(sresp.Body).Decode(&stats)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.EngineStats.WallNs <= 0 || stats.EngineStats.Combos.Total == 0 || len(stats.EngineStats.Workers) == 0 {
		t.Fatalf("stats endpoint returned an empty snapshot: %+v", stats.EngineStats)
	}

	tresp, err := http.Get(base + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	traceRaw, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d", tresp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			TID   int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceRaw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	rows := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "M" && ev.Name == "thread_name" {
			rows[ev.TID] = true
		}
	}
	if want := len(stats.EngineStats.Workers) + 1; len(rows) != want {
		t.Errorf("trace has %d named rows, want %d (one per engine worker + events)", len(rows), want)
	}
}

// scrapeMetrics fetches /metrics and requires it to pass the exposition
// lint.
func scrapeMetrics(t *testing.T, base string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := service.LintMetrics(scrape); err != nil {
		t.Fatalf("/metrics fails exposition lint: %v", err)
	}
	return scrape
}

// metricValue returns the value of the unlabeled series name in scrape.
func metricValue(t *testing.T, scrape []byte, name string) float64 {
	t.Helper()
	line := firstMatching(scrape, name)
	if line == "" {
		t.Fatalf("/metrics has no %s series", name)
	}
	v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
	if err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	return v
}
