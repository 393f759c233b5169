// Command seadoptd serves the seadopt design optimizer as a long-running
// daemon: clients POST task-graph optimization jobs (canonical JSON, TGFF
// or DOT), follow their design-space exploration over Server-Sent Events,
// and fetch deterministic Design results that are content-addressed cached
// and single-flight deduplicated across concurrent submitters.
//
//	seadoptd -addr :8080 -workers 2 -cache-size 256
//
// API (see internal/service for the full contract):
//
//	POST   /v1/jobs               submit (JSON envelope, or raw body + ?format=)
//	GET    /v1/jobs               list jobs
//	GET    /v1/jobs/{id}          status + result
//	DELETE /v1/jobs/{id}          cancel
//	GET    /v1/jobs/{id}/progress SSE progress stream
//	GET    /v1/jobs/{id}/stats    engine telemetry (phase timings, counters)
//	GET    /v1/jobs/{id}/trace    worker-timeline Chrome trace (perfetto)
//	GET    /healthz               liveness (503 while draining) + build info
//	GET    /metrics               Prometheus text metrics (incl. latency histograms)
//	POST   /internal/v1/shard     execute one exploration shard for a peer coordinator
//
// With -store DIR the daemon journals every accepted job and result to an
// append-only store, so a crash-and-restart against the same directory
// loses no accepted work. With -peer URL (repeatable) it becomes a
// coordinator that fans eligible jobs' exploration shards out to peer
// daemons, with results byte-identical to a single-node run.
//
// Logs are structured (log/slog) on stderr; -log-format selects text or
// json and -log-level the minimum severity.
//
// On SIGTERM/SIGINT the daemon stops accepting jobs, drains in-flight work
// for up to -drain-timeout, then aborts whatever remains and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"seadopt"
	"seadopt/internal/buildinfo"
	"seadopt/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "seadoptd:", err)
		os.Exit(1)
	}
}

// run boots the daemon and blocks until ctx is cancelled and the drain
// completes. ready, when non-nil, receives the bound listen address once
// the server is accepting connections (tests bind :0 and need the port).
func run(ctx context.Context, args []string, ready func(addr string)) error {
	fs := flag.NewFlagSet("seadoptd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "HTTP listen address")
		workers      = fs.Int("workers", 2, "concurrently executing optimization jobs")
		cacheSize    = fs.Int("cache-size", 256, "result-cache capacity in entries (negative disables)")
		queueDepth   = fs.Int("queue-depth", 1024, "maximum queued jobs before submissions get 503")
		parallel     = fs.Int("engine-parallel", 0, "per-job exploration parallelism (0 = all cores)")
		retention    = fs.Int("job-retention", 4096, "finished job records kept queryable (negative = unlimited)")
		strategy     = fs.String("strategy", "", "default exploration strategy for jobs that don't set one: bnb (default), exhaustive, or sampled")
		platformFile = fs.String("platform", "", "JSON platform-spec file applied to jobs that don't name a platform (heterogeneous MPSoCs supported; default 4 ARM7 cores × Table I)")
		paretoMode   = fs.Bool("pareto", false, "default jobs that don't set a mode to pareto (serve frontiers instead of single designs)")
		objectives   = fs.String("objectives", "", "default pareto objectives for jobs that don't set them: comma-separated subset of power,makespan,gamma")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs")
		pprofOn      = fs.Bool("pprof", false, "expose net/http/pprof profiling endpoints under /debug/pprof/ (off by default; enable only on trusted networks)")
		storeDir     = fs.String("store", "", "directory for the durable job store; submitted jobs and results survive a crash-and-restart against the same directory (empty = in-memory only)")
		shards       = fs.Int("shards", 0, "shard count for distributed jobs (0 = one embedded shard plus one per -peer)")
		rateLimit    = fs.Float64("rate-limit", 0, "submissions per second per client IP before 429 (0 = unlimited)")
		rateBurst    = fs.Int("rate-burst", 0, "rate-limit token-bucket burst (0 = max(1, ceil(rate-limit)))")
		maxBody      = fs.Int64("max-body-bytes", 0, "maximum submission payload before 413 (0 = 16 MiB)")
		logFormat    = fs.String("log-format", "text", "structured log format: text or json")
		logLevel     = fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
		version      = fs.Bool("version", false, "print build version information and exit")
	)
	var peers []string
	fs.Func("peer", "peer seadoptd base URL to fan exploration shards out to (repeatable)", func(v string) error {
		peers = append(peers, v)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println("seadoptd", buildinfo.Read())
		return nil
	}
	logger, err := newLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	if _, err := seadopt.ParseExploreStrategy(*strategy); err != nil {
		return err
	}
	if _, err := seadopt.ParseParetoObjectives(*objectives); err != nil {
		return err
	}
	if *objectives != "" && !*paretoMode {
		return fmt.Errorf("-objectives needs -pareto")
	}
	defaultMode := ""
	if *paretoMode {
		defaultMode = "pareto"
	}
	var defaultPlatform *seadopt.Platform
	if *platformFile != "" {
		f, err := os.Open(*platformFile)
		if err != nil {
			return fmt.Errorf("-platform: %w", err)
		}
		defaultPlatform, err = seadopt.ParsePlatformSpec(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("-platform %s: %w", *platformFile, err)
		}
		logger.Info("default platform loaded", "cores", defaultPlatform.Cores(), "file", *platformFile)
	}

	svc, err := service.NewServer(service.Config{
		Workers:           *workers,
		CacheEntries:      *cacheSize,
		QueueDepth:        *queueDepth,
		EngineParallelism: *parallel,
		JobRetention:      *retention,
		DefaultStrategy:   *strategy,
		DefaultMode:       defaultMode,
		DefaultObjectives: *objectives,
		DefaultPlatform:   defaultPlatform,
		StoreDir:          *storeDir,
		Peers:             peers,
		Shards:            *shards,
		RateLimit:         *rateLimit,
		RateBurst:         *rateBurst,
		MaxBodyBytes:      *maxBody,
		Logger:            logger,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	handler := svc.Handler()
	if *pprofOn {
		// The service handler owns "/"; mount the profiler beside it on a
		// wrapper mux rather than the default mux so nothing is exposed
		// unless the operator asked for it.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		logger.Info("profiling endpoints enabled", "path", "/debug/pprof/")
	}
	hs := &http.Server{Handler: handler}
	logger.Info("listening", "addr", ln.Addr().String(),
		"workers", *workers, "cache_entries", *cacheSize, "build", buildinfo.Read().String())
	if ready != nil {
		ready(ln.Addr().String())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		// The listener died; don't leak the worker pool behind it.
		abort, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = svc.Close(abort)
		return err
	case <-ctx.Done():
	}

	logger.Info("draining", "timeout", drainTimeout.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting HTTP first, then drain the job queue. Both share the
	// drain budget; Close aborts whatever is still running when it expires.
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", "error", err.Error())
	}
	if err := svc.Close(drainCtx); err != nil {
		logger.Warn("drain deadline exceeded; in-flight jobs were aborted")
		return nil
	}
	logger.Info("drained cleanly")
	return nil
}

// newLogger builds the daemon's structured logger from the -log-format and
// -log-level flags.
func newLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format %q (want text or json)", format)
	}
}
