package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// allStates fixes the /metrics rendering order so every per-state gauge is
// always present (a state with zero jobs still exports 0 — scrapers should
// never see series appear and disappear) and always in this order, so
// scrape-diff tooling sees byte-stable output.
var allStates = []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled}

// renderMetrics writes the snapshot in the Prometheus text exposition
// format (v0.0.4) under the seadoptd_ namespace: the operational
// counters/gauges, the latency histograms, Go runtime health and the build
// identity. All map-derived series are emitted in sorted label order so the
// output is deterministic for a fixed snapshot.
func renderMetrics(w io.Writer, m Metrics) {
	gauge := func(name, help string, value int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, value)
	}
	counter := func(name, help string, value int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, value)
	}

	gauge("seadoptd_queue_depth", "Flights waiting for a worker.", int64(m.QueueDepth))
	gauge("seadoptd_workers", "Size of the worker pool.", int64(m.Workers))
	draining := int64(0)
	if m.Draining {
		draining = 1
	}
	gauge("seadoptd_draining", "1 while the server drains for shutdown.", draining)
	gauge("seadoptd_cache_entries", "Results held by the LRU cache.", int64(m.CacheEntries))
	gauge("seadoptd_cache_capacity", "Configured cache capacity.", int64(m.CacheCapacity))
	counter("seadoptd_cache_hits_total", "Jobs answered from the result cache.", m.CacheHits)
	counter("seadoptd_cache_hits_by_document_total", "Cache hits answered from the submitted graph document, without building the graph.", m.CacheHitsByDocument)
	counter("seadoptd_cache_misses_total", "Submissions that missed the result cache.", m.CacheMisses)
	counter("seadoptd_coalesced_total", "Jobs coalesced onto an in-flight identical problem.", m.Coalesced)
	counter("seadoptd_engine_executions_total", "Underlying optimizer executions.", m.EngineExecutions)
	counter("seadoptd_jobs_submitted_total", "Jobs accepted for processing.", m.Submitted)
	counter("seadoptd_combinations_explored_total", "Scaling combinations the mapper evaluated.", m.CombinationsExplored)
	counter("seadoptd_combinations_pruned_total", "Scaling combinations skipped by branch-and-bound pruning.", m.CombinationsPruned)
	counter("seadoptd_pareto_executions_total", "Pareto-mode engine executions.", m.ParetoExecutions)
	gauge("seadoptd_pareto_frontier_size", "Frontier size of the most recently finished pareto execution.", m.ParetoFrontierSize)
	gauge("seadoptd_result_cache_size", "Results currently held by the LRU result cache.", int64(m.CacheEntries))
	counter("seadoptd_result_cache_evictions_total", "Results dropped from the LRU result cache by its capacity bound.", m.CacheEvictions)
	counter("seadoptd_sweep_points_total", "Sweep points evaluated by batch (mode=sweep) jobs.", m.SweepPoints)
	counter("seadoptd_sharded_executions_total", "Engine executions fanned out over distributed shards.", m.ShardedExecutions)
	counter("seadoptd_shards_served_total", "Shard ranges executed on behalf of a remote coordinator.", m.ShardsServed)
	counter("seadoptd_store_appends_total", "Records appended and fsynced to the durable job journal.", m.StoreAppends)
	counter("seadoptd_store_bytes_total", "Bytes appended to the durable job journal.", m.StoreBytes)
	fmt.Fprintf(w, "# HELP seadoptd_store_recovery_seconds Duration of the boot's journal replay and recovery.\n"+
		"# TYPE seadoptd_store_recovery_seconds gauge\nseadoptd_store_recovery_seconds %s\n",
		formatFloat(m.StoreRecoverySec))

	fmt.Fprintf(w, "# HELP seadoptd_rejected_total Submissions rejected by admission control, by reason.\n"+
		"# TYPE seadoptd_rejected_total counter\n")
	for _, reason := range rejectReasons {
		fmt.Fprintf(w, "seadoptd_rejected_total{reason=%q} %d\n", reason, m.Rejected[reason])
	}

	fmt.Fprintf(w, "# HELP seadoptd_jobs Jobs per lifecycle state.\n# TYPE seadoptd_jobs gauge\n")
	for _, st := range allStates {
		fmt.Fprintf(w, "seadoptd_jobs{state=%q} %d\n", st, m.Jobs[st])
	}

	renderHistogram(w, "seadoptd_job_queue_wait_seconds",
		"Time flights spent queued before a worker picked them up.",
		"", m.QueueWait)
	renderHistogram(w, "seadoptd_engine_exec_seconds",
		"Wall-clock duration of engine executions.",
		"", m.ExecTime)
	renderHTTPHistograms(w, m.HTTP)

	gauge("seadoptd_goroutines", "Live goroutines.", int64(m.Goroutines))
	gauge("seadoptd_heap_alloc_bytes", "Bytes of allocated heap objects.", int64(m.HeapAllocBytes))
	gauge("seadoptd_heap_sys_bytes", "Bytes of heap obtained from the OS.", int64(m.HeapSysBytes))
	counter("seadoptd_gc_cycles_total", "Completed GC cycles.", int64(m.GCCycles))
	fmt.Fprintf(w, "# HELP seadoptd_gc_pause_seconds_total Cumulative GC stop-the-world pause time.\n"+
		"# TYPE seadoptd_gc_pause_seconds_total counter\nseadoptd_gc_pause_seconds_total %s\n",
		formatFloat(m.GCPauseTotalSec))

	fmt.Fprintf(w, "# HELP seadoptd_build_info Build identity of the running binary; the value is always 1.\n"+
		"# TYPE seadoptd_build_info gauge\nseadoptd_build_info{version=%q,revision=%q,go=%q} 1\n",
		m.BuildVersion, m.BuildRevision, m.BuildGo)
}

// renderHistogram writes one Prometheus histogram family: cumulative
// _bucket series ending at le="+Inf", then _sum and _count. labels, when
// non-empty, is a pre-rendered `name="value"` list applied to every series.
// Passing help == "" suppresses the HELP/TYPE header (the multi-series HTTP
// family prints it once itself).
func renderHistogram(w io.Writer, name, help, labels string, h HistogramSnapshot) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	}
	sep := ""
	suffix := ""
	if labels != "" {
		sep = ","
		suffix = "{" + labels + "}"
	}
	var cum uint64
	for i, bound := range h.Bounds {
		if i < len(h.Counts) {
			cum += h.Counts[i]
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, formatFloat(bound), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.Count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, suffix, formatFloat(h.Sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, h.Count)
}

// renderHTTPHistograms writes the per-route request-latency family with
// routes in sorted order.
func renderHTTPHistograms(w io.Writer, byRoute map[string]HistogramSnapshot) {
	const name = "seadoptd_http_request_duration_seconds"
	if len(byRoute) == 0 {
		return // a family must not be declared without samples
	}
	fmt.Fprintf(w, "# HELP %s HTTP request latency by route pattern.\n# TYPE %s histogram\n", name, name)
	routes := make([]string, 0, len(byRoute))
	for route := range byRoute {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	for _, route := range routes {
		renderHistogram(w, name, "", fmt.Sprintf("route=%q", route), byRoute[route])
	}
}

// formatFloat renders a float the shortest way that round-trips, matching
// Prometheus client conventions ("0.0001", not "1e-04", for bucket bounds
// in our range).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}
