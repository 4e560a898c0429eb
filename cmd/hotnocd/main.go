// Command hotnocd serves hotnoc.Lab sweeps over HTTP so many clients
// share one build and characterization cache per scale. Submitted grids
// become jobs that stream progress and outcomes as server-sent events;
// the six hotnoc CLIs run against a daemon via their -server flag.
//
// Usage:
//
//	hotnocd [-addr :7077] [-cache-dir DIR] [-cache-limit N] [-workers N]
//	        [-max-jobs N] [-retain-jobs N] [-retain-for 1h]
//	        [-tenants FILE] [-allow-anonymous]
//	        [-default-max-running N] [-default-max-queued N]
//	        [-default-rate R] [-default-burst N] [-max-body BYTES]
//	        [-metrics] [-metrics-log FILE] [-metrics-flush 15s]
//	        [-event-buffer N] [-drain-timeout 1m] [-v]
//
// -addr is the listen address. -cache-dir persists NoC characterizations
// and calibrated build snapshots (annealed placement + energy
// calibration) across restarts, so a restarted daemon warm-starts with
// zero annealing, calibration or cycle-accurate simulation (strongly
// recommended for a long-lived daemon); -cache-limit bounds the file
// count of each artifact kind with LRU eviction. -workers bounds
// the tasks each sweep job runs at once (0 = one per core); concurrent
// jobs each run that many. -max-jobs bounds
// concurrently running sweep jobs: at the bound, new submissions queue
// and a weighted-fair scheduler dispatches them as slots free up.
// -retain-jobs caps how many finished jobs (and their replayable event
// logs) stay in memory; -retain-for expires finished jobs after a TTL —
// between them a long-lived daemon's memory stops growing with its
// history.
//
// -tenants names a JSON tenants file (see the server/tenant package for
// the format): every /v1 request must then present a known API key as
// "Authorization: Bearer <key>" or it is rejected with 401 (403 for
// disabled tenants). -allow-anonymous additionally admits requests with
// no credentials as the anonymous tenant — the migration path for
// legacy clients. Without -tenants the daemon is open, exactly as
// before. The -default-* flags set the limits a tenants-file entry
// inherits when it omits them, and the anonymous tenant's limits:
// -default-max-running caps a tenant's concurrently running jobs
// (excess queues), -default-max-queued caps its queued jobs and
// -default-rate/-default-burst its submit-rate token bucket (excess is
// 429 + Retry-After). Zero means unbounded. -max-body caps the POST
// /v1/sweeps body (413 beyond it; 0 = 8 MiB).
//
// The daemon is observable in production. GET /metrics (on by default;
// -metrics=false leaves the route off) serves Prometheus text
// exposition: stage-latency histograms and cache counters per scale,
// queue-wait and per-tenant job counters, scheduler depth gauges.
// GET /v1/events streams structured lifecycle diagnostics (job
// submitted/queued/dispatched/finished, tenant throttling) as
// tenant-scoped server-sent events with Last-Event-ID resume;
// -event-buffer sets its replay depth. -metrics-log appends a JSON snapshot of every
// instrument to a file each -metrics-flush interval — flight-recorder
// observability with no scraper in sight.
//
// On SIGHUP the daemon reloads its -tenants file in place: new keys,
// weights and limits apply immediately, running jobs are untouched, and
// a file that fails to parse keeps the current registry. On
// SIGINT/SIGTERM the daemon stops accepting sweeps, drains in-flight
// jobs for up to -drain-timeout, then cancels whatever remains and
// exits. -v logs requests.
//
// Endpoints (see the server package for details):
//
//	POST   /v1/sweeps             submit a grid, returns {"id": "job-N"}
//	GET    /v1/sweeps/{id}/events SSE stream of progress + outcomes
//	GET    /v1/jobs               list jobs
//	GET    /v1/jobs/{id}          one job
//	DELETE /v1/jobs/{id}          cancel (or forget) a job
//	GET    /v1/builds/{config}    placement report (query: scale)
//	GET    /v1/stats              decodes, cache hits, worker utilization
//	GET    /v1/events             SSE diagnostics stream (lifecycle events)
//	GET    /metrics               Prometheus text exposition
//	GET    /healthz               liveness
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hotnoc/obs"
	"hotnoc/server"
	"hotnoc/server/tenant"
)

func main() {
	addr := flag.String("addr", ":7077", "listen address")
	cacheDir := flag.String("cache-dir", "", "persist NoC characterizations and calibrated build snapshots under this directory")
	cacheLimit := flag.Int("cache-limit", 0, "bound the cache file count per artifact kind (LRU eviction; 0 = unbounded)")
	workers := flag.Int("workers", 0, "workers per sweep job (0 = one per core)")
	maxJobs := flag.Int("max-jobs", 0, "maximum concurrently running sweep jobs; excess queues for weighted-fair dispatch (0 = unbounded)")
	retainJobs := flag.Int("retain-jobs", 0, "finished jobs kept in memory for late subscribers (0 = unbounded)")
	retainFor := flag.Duration("retain-for", 0, "finished-job TTL, e.g. 1h (0 = keep until DELETEd)")
	tenantsFile := flag.String("tenants", "", "JSON tenants file; requires an API key on every /v1 request")
	allowAnon := flag.Bool("allow-anonymous", false, "with -tenants, admit unauthenticated requests as the anonymous tenant")
	defMaxRunning := flag.Int("default-max-running", 0, "default per-tenant running-job quota; excess queues (0 = unbounded)")
	defMaxQueued := flag.Int("default-max-queued", 0, "default per-tenant queued-job bound; excess is 429 (0 = unbounded)")
	defRate := flag.Float64("default-rate", 0, "default per-tenant submit rate in jobs/sec; excess is 429 (0 = unbounded)")
	defBurst := flag.Int("default-burst", 0, "default per-tenant submit-rate burst (values below 1 act as 1)")
	maxBody := flag.Int64("max-body", 0, "maximum POST /v1/sweeps body in bytes; excess is 413 (0 = 8 MiB)")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "how long to drain in-flight jobs on shutdown")
	metrics := flag.Bool("metrics", true, "serve Prometheus metrics on GET /metrics")
	metricsLog := flag.String("metrics-log", "", "append periodic JSON metric snapshots to this file (requires -metrics)")
	metricsFlush := flag.Duration("metrics-flush", 15*time.Second, "how often -metrics-log snapshots are written")
	eventBuffer := flag.Int("event-buffer", 0, "GET /v1/events diagnostics ring capacity (0 = 512)")
	sseKeepAlive := flag.Duration("sse-keepalive", 0, "SSE keep-alive comment interval on idle event streams (0 = 15s)")
	verbose := flag.Bool("v", false, "log requests")
	flag.Parse()

	logger := log.New(os.Stderr, "hotnocd: ", log.LstdFlags)

	defaults := tenant.Limits{
		MaxRunning: *defMaxRunning,
		MaxQueued:  *defMaxQueued,
		RatePerSec: *defRate,
		Burst:      *defBurst,
	}
	var registry *tenant.Registry
	if *tenantsFile != "" {
		var err error
		registry, err = tenant.Load(*tenantsFile, defaults, *allowAnon)
		if err != nil {
			logger.Fatalf("%v", err)
		}
		mode := "API key required"
		if *allowAnon {
			mode = "anonymous requests allowed"
		}
		logger.Printf("loaded %d tenants from %s (%s)", registry.Len(), *tenantsFile, mode)
	} else {
		registry = tenant.Open(defaults)
		if *allowAnon {
			logger.Printf("-allow-anonymous has no effect without -tenants (the daemon is open)")
		}
	}

	cfg := server.Config{
		CacheDir:       *cacheDir,
		CacheLimit:     *cacheLimit,
		Workers:        *workers,
		MaxJobs:        *maxJobs,
		Tenants:        registry,
		MaxBody:        *maxBody,
		RetainJobs:     *retainJobs,
		RetainFor:      *retainFor,
		DisableMetrics: !*metrics,
		EventBuffer:    *eventBuffer,
		KeepAlive:      *sseKeepAlive,
	}
	// The daemon's registry is created here so sinks can attach to it;
	// server.New records its scheduler and pipeline instruments
	// into it and serves it on GET /metrics.
	obsReg := obs.NewRegistry()
	cfg.Metrics = obsReg
	var metricsBatcher *obs.Batcher
	if *metricsLog != "" {
		if !*metrics {
			logger.Fatalf("-metrics-log requires -metrics")
		}
		f, err := os.OpenFile(*metricsLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			logger.Fatalf("-metrics-log: %v", err)
		}
		metricsBatcher = obs.NewBatcher(obsReg, *metricsFlush, obs.NewLogSink(f))
		logger.Printf("metrics snapshots every %s to %s", *metricsFlush, *metricsLog)
	}
	svc := server.New(cfg)
	var handler http.Handler = svc
	if *verbose {
		handler = logRequests(logger, svc)
	}
	// ReadHeaderTimeout bounds how long an idle connection may sit on its
	// request line before the daemon reclaims it (slowloris); IdleTimeout
	// reclaims kept-alive connections between requests. No WriteTimeout:
	// event streams are legitimately long-lived.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP hot-reloads the tenants file: new keys, weights and limits
	// apply without restarting (or even pausing) the daemon. A file that
	// no longer parses keeps the current registry — a typo must not lock
	// every tenant out.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if *tenantsFile == "" {
				logger.Printf("SIGHUP: no -tenants file to reload")
				continue
			}
			reg, err := tenant.Load(*tenantsFile, defaults, *allowAnon)
			if err != nil {
				logger.Printf("SIGHUP: tenants reload failed, keeping current registry: %v", err)
				continue
			}
			svc.SetTenants(reg)
			logger.Printf("SIGHUP: reloaded %d tenants from %s", reg.Len(), *tenantsFile)
		}
	}()

	errCh := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (cache-dir %q, workers %d)", *addr, *cacheDir, *workers)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case <-ctx.Done():
	case err := <-errCh:
		logger.Fatalf("serve: %v", err)
	}

	logger.Printf("shutting down: draining jobs (up to %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Shutdown(drainCtx); err != nil {
		logger.Printf("drain incomplete, canceled remaining jobs: %v", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("http shutdown: %v", err)
	}
	if metricsBatcher != nil {
		// Final snapshot: the terminal counter values land in the log
		// before exit.
		if err := metricsBatcher.Close(); err != nil {
			logger.Printf("metrics flush: %v", err)
		}
	}
	logger.Printf("bye")
}

// logRequests is a minimal request logger for -v.
func logRequests(logger *log.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		logger.Printf("%s %s (%s)", r.Method, r.URL.Path, time.Since(start).Round(time.Millisecond))
	})
}
