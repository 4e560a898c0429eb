// Command hotnocd serves hotnoc.Lab sweeps over HTTP so many clients
// share one characterization cache and one worker pool. Submitted grids
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
//	        [-coordinator] [-join URL] [-advertise URL]
//	        [-fleet-secret SECRET] [-worker-lease 15s]
//	        [-metrics] [-metrics-log FILE] [-metrics-flush 15s]
//	        [-event-buffer N] [-drain-timeout 1m] [-v]
//
// -addr is the listen address. -cache-dir persists NoC characterizations
// and calibrated build snapshots (annealed placement + energy
// calibration) across restarts, so a restarted daemon warm-starts with
// zero annealing, calibration or cycle-accurate simulation (strongly
// recommended for a long-lived daemon); -cache-limit bounds the file
// count of each artifact kind with LRU eviction. -workers bounds
// each Lab's worker pool (0 = one per core). -max-jobs bounds
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
// Daemons compose into a fleet. -coordinator runs this daemon as a
// coordinator: it simulates nothing itself, but shards every submitted
// sweep across the workers that joined it and merges their streams back
// into one byte-identical, point-ordered stream — clients just point
// -server at the coordinator. -join URL runs this daemon as a worker of
// the coordinator at URL: it registers itself (advertising -advertise,
// derived from -addr when omitted) and re-registers every third of the
// coordinator's -worker-lease as a heartbeat; a worker that misses its
// lease is expired and its unfinished shards move to survivors.
// -fleet-secret, when set on the coordinator, must be presented by
// joining workers — tenant API keys never leave the coordinator.
//
// The daemon is observable in production. GET /metrics (on by default;
// -metrics=false leaves the route off) serves Prometheus text
// exposition: stage-latency histograms and cache counters per scale,
// queue-wait and per-tenant job counters, scheduler depth gauges — and,
// on a coordinator, fleet-wide aggregates with per-worker labels that
// stay monotonic across worker restarts. GET /v1/events streams
// structured lifecycle diagnostics (job submitted/queued/dispatched/
// finished, tenant throttling, worker join/leave) as tenant-scoped
// server-sent events with Last-Event-ID resume; -event-buffer sets its
// replay depth. -metrics-log appends a JSON snapshot of every
// instrument to a file each -metrics-flush interval — flight-recorder
// observability with no scraper in sight.
//
// On SIGHUP the daemon reloads its -tenants file in place: new keys,
// weights and limits apply immediately, running jobs are untouched, and
// a file that fails to parse keeps the current registry. On
// SIGINT/SIGTERM the daemon stops accepting sweeps (a worker also
// deregisters from its coordinator), drains in-flight jobs for up to
// -drain-timeout, then cancels whatever remains and exits. -v logs
// requests.
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
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"hotnoc/client"
	"hotnoc/obs"
	"hotnoc/server"
	"hotnoc/server/fleet"
	"hotnoc/server/tenant"
	"hotnoc/server/wire"
)

func main() {
	addr := flag.String("addr", ":7077", "listen address")
	cacheDir := flag.String("cache-dir", "", "persist NoC characterizations and calibrated build snapshots under this directory")
	cacheLimit := flag.Int("cache-limit", 0, "bound the cache file count per artifact kind (LRU eviction; 0 = unbounded)")
	workers := flag.Int("workers", 0, "per-Lab sweep worker pool size (0 = one per core)")
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
	coordinator := flag.Bool("coordinator", false, "run as a fleet coordinator: shard sweeps across joined workers instead of simulating locally")
	join := flag.String("join", "", "coordinator URL to join as a worker (e.g. http://coord:7077)")
	advertise := flag.String("advertise", "", "base URL the coordinator reaches this worker at (default derives from -addr)")
	fleetSecret := flag.String("fleet-secret", "", "shared secret gating worker registration; set on the coordinator, presented by joining workers")
	workerLease := flag.Duration("worker-lease", 15*time.Second, "coordinator: how long a worker registration lives without a heartbeat")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "how long to drain in-flight jobs on shutdown")
	metrics := flag.Bool("metrics", true, "serve Prometheus metrics on GET /metrics")
	metricsLog := flag.String("metrics-log", "", "append periodic JSON metric snapshots to this file (requires -metrics)")
	metricsFlush := flag.Duration("metrics-flush", 15*time.Second, "how often -metrics-log snapshots are written")
	eventBuffer := flag.Int("event-buffer", 0, "GET /v1/events diagnostics ring capacity (0 = 512)")
	sseKeepAlive := flag.Duration("sse-keepalive", 0, "SSE keep-alive comment interval on idle event streams (0 = 15s)")
	verbose := flag.Bool("v", false, "log requests")
	flag.Parse()

	logger := log.New(os.Stderr, "hotnocd: ", log.LstdFlags)

	if *coordinator && *join != "" {
		logger.Fatalf("-coordinator and -join are mutually exclusive: a daemon is either the coordinator or a worker")
	}

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
	if *coordinator {
		cfg.Fleet = fleet.NewCoordinator(fleet.Config{Lease: *workerLease, Secret: *fleetSecret})
		logger.Printf("coordinator mode: sweeps shard across joined workers (lease %s)", *workerLease)
	}
	// The daemon's registry is created here so sinks can attach to it;
	// server.New records its scheduler, pipeline and fleet instruments
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

	var leaveFleet func()
	if *join != "" {
		leaveFleet = joinFleet(ctx, logger, *join, *fleetSecret, advertiseURL(*advertise, *addr), *workers)
	}

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

	if leaveFleet != nil {
		// Deregister before draining so the coordinator re-dispatches
		// this worker's shards instead of waiting out the lease.
		leaveFleet()
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

// advertiseURL derives the base URL a worker advertises to its
// coordinator when -advertise is not given: the listen address, with a
// loopback host filled in when -addr leaves the host empty.
func advertiseURL(advertise, addr string) string {
	if advertise != "" {
		return strings.TrimRight(advertise, "/")
	}
	if strings.HasPrefix(addr, ":") {
		return "http://127.0.0.1" + addr
	}
	return "http://" + addr
}

// joinFleet registers this daemon with the coordinator at coordURL and
// keeps the lease alive: registration is idempotent by URL, so re-POSTing
// every third of the lease is the heartbeat, and a coordinator restart
// just re-adds us under a fresh id. The returned function deregisters
// cleanly — call it on shutdown before draining, so the coordinator
// moves this worker's shards to survivors immediately.
func joinFleet(ctx context.Context, logger *log.Logger, coordURL, secret, selfURL string, capacity int) func() {
	if capacity <= 0 {
		capacity = runtime.NumCPU()
	}
	cl := client.New(coordURL, client.WithAPIKey(secret))
	reg := wire.WorkerRegistration{URL: selfURL, Capacity: capacity}
	var (
		mu sync.Mutex
		id string
	)
	go func() {
		interval := 5 * time.Second
		for {
			lease, err := cl.RegisterWorker(ctx, reg)
			if err != nil {
				if ctx.Err() != nil {
					return
				}
				logger.Printf("fleet: registering with %s failed (will retry): %v", coordURL, err)
			} else {
				mu.Lock()
				if id != lease.ID {
					logger.Printf("fleet: joined %s as %s, advertising %s (lease %.0fs)", coordURL, lease.ID, selfURL, lease.LeaseSec)
				}
				id = lease.ID
				mu.Unlock()
				if lease.LeaseSec > 0 {
					interval = time.Duration(lease.LeaseSec*float64(time.Second)) / 3
				}
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(interval):
			}
		}
	}()
	return func() {
		mu.Lock()
		defer mu.Unlock()
		if id == "" {
			return
		}
		dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := cl.DeregisterWorker(dctx, id); err != nil {
			logger.Printf("fleet: deregister: %v", err)
		}
	}
}

// logRequests is a minimal request logger for -v.
func logRequests(logger *log.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		logger.Printf("%s %s (%s)", r.Method, r.URL.Path, time.Since(start).Round(time.Millisecond))
	})
}
