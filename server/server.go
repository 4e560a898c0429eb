// Package server implements hotnocd's HTTP service: the hotnoc.Lab
// session API exposed over HTTP/JSON with server-sent-event streaming, so
// many clients share one long-lived Lab — one build cache, one cross-run
// characterization cache, one worker pool — instead of each paying for
// the cycle-accurate NoC stage themselves.
//
// Endpoints:
//
//	POST   /v1/sweeps             submit a grid; returns a job id
//	GET    /v1/sweeps/{id}/events SSE stream: progress + outcomes in point order
//	GET    /v1/jobs               list jobs
//	GET    /v1/jobs/{id}          one job's state
//	DELETE /v1/jobs/{id}          cancel a running job / forget a finished one
//	GET    /v1/builds/{config}    placement report (query: scale)
//	GET    /v1/stats              decode counter, cache hits, worker utilization
//	GET    /healthz               liveness
//
// Grids may mix periodic and reactive points (wire.PointSpec's kind
// field); both kinds share NoC characterizations per (config, scheme)
// through the Lab, so the daemon serves the paper's entire experiment
// space from one cache. Malformed grids are rejected at submission with
// a 400 naming the offending point — the same fail-fast validation the
// in-process Lab applies.
//
// The daemon is multi-tenant. Config.Tenants (a tenant.Registry) maps
// Authorization: Bearer keys to identities on every /v1 route: missing
// or wrong credentials are 401, disabled tenants 403, and an open
// registry (no tenants file) preserves the pre-tenancy trust-everyone
// behavior by attributing every request to the anonymous tenant. Each
// tenant carries admission limits — at its running-job quota new
// submissions queue; at its queued-job bound or over its submit rate
// they are rejected with 429 + Retry-After — and a scheduling weight:
// jobs wait in per-tenant FIFO queues and a stride/weighted-fair
// scheduler (see sched.go) dispatches them into the global
// Config.MaxJobs slots in proportion to tenant weights, so one greedy
// tenant can no longer starve the rest. Queued jobs surface their
// queue position and a rough ETA on GET /v1/jobs/{id}; per-tenant
// accounting (running/queued/terminal counts, rejected submissions,
// cumulative evaluated points) is on /v1/stats.
//
// The SSE stream replays the job's full event log on (re)connect
// before following live events, so subscribing is race-free — also
// while the job is still queued. The daemon keeps one Lab per scale:
// concurrent jobs over the same grid points share builds and
// characterizations through the Lab's singleflight caches, which is the
// whole point of running this as a service.
//
// Config.RetainJobs and Config.RetainFor bound how long finished jobs
// and their event logs stay addressable, so a long-lived daemon's
// memory does not grow with its history; Config.MaxBody bounds sweep
// request bodies (oversized grids are 413, not an allocation).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hotnoc"
	"hotnoc/obs"
	"hotnoc/server/tenant"
	"hotnoc/server/wire"
)

// Config tunes a Server.
type Config struct {
	// CacheDir persists NoC characterizations and calibrated build
	// snapshots across restarts — a restarted daemon warm-starts with
	// zero annealing, calibration or cycle-accurate simulation; empty
	// keeps both caches memory-only.
	CacheDir string
	// CacheLimit bounds the file count of each cache artifact kind under
	// CacheDir with LRU eviction; zero means unbounded.
	CacheLimit int
	// Workers bounds each Lab's worker pool (0 = one per core). All jobs
	// at one scale multiplex onto the same pool.
	Workers int
	// MaxJobs bounds concurrently running sweep jobs across all scales.
	// At the bound, admitted submissions queue and the weighted-fair
	// scheduler dispatches them as slots free up; only a tenant's own
	// bounds (queued jobs, submit rate) produce 429s. Zero means
	// unbounded.
	MaxJobs int
	// Tenants is the identity layer: every /v1 request resolves to a
	// tenant through it (401/403 otherwise). Nil means an open daemon:
	// all requests are the anonymous tenant with unbounded limits —
	// the pre-tenancy behavior.
	Tenants *tenant.Registry
	// MaxBody caps the POST /v1/sweeps request body; oversized grids
	// are rejected with 413. Zero means the 8 MiB default.
	MaxBody int64
	// RetainJobs caps how many finished jobs (and their in-memory event
	// logs) the daemon keeps for late subscribers; beyond it the
	// oldest-finished jobs are forgotten, exactly as if a client had
	// DELETEd them. Zero means unbounded. Running jobs never count
	// against the cap.
	RetainJobs int
	// RetainFor is the finished-job TTL: a job whose terminal state is
	// older than this is forgotten on the next submission, completion or
	// listing. Zero keeps finished jobs until DELETEd (or evicted by
	// RetainJobs).
	RetainFor time.Duration
	// Metrics, when non-nil, is the obs registry the daemon records into
	// and serves on GET /metrics — share one to co-host the daemon with
	// other instrumented subsystems in one process. Nil creates a
	// private registry. The daemon's per-tenant counters live only here
	// and /v1/stats reads them back, so give each daemon its own
	// registry.
	Metrics *obs.Registry
	// DisableMetrics leaves GET /metrics unrouted. The daemon still
	// counts into its registry, which /v1/stats reads.
	DisableMetrics bool
	// EventBuffer is the retention depth of the GET /v1/events
	// diagnostics ring: how many lifecycle events a reconnecting
	// subscriber can replay. Zero means 512.
	EventBuffer int
	// KeepAlive is the SSE keep-alive interval: on every stream
	// (/v1/sweeps/{id}/events and /v1/events) an idle connection
	// receives an SSE comment line (": keep-alive") at this cadence, so
	// proxies and load balancers with idle timeouts shorter than a long
	// quiet job do not sever the stream. SSE clients ignore comment
	// lines by spec. Zero means 15s.
	KeepAlive time.Duration
}

// Server serves Lab sweeps over HTTP. Create one with New, mount it as an
// http.Handler, and call Shutdown to drain in-flight jobs before exit.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	tenants *tenant.Registry

	jobsWG sync.WaitGroup

	// mu is held around Lab creation, which registers instruments —
	// taking the obs registry lock. Scrape-time code (GaugeFunc and
	// CounterFunc callbacks) must therefore never acquire it; the
	// lockorder analyzer enforces the ordering.
	mu       sync.Mutex //hotnoc:scrapelocked
	draining bool
	labs     map[int]*hotnoc.Lab
	jobs     map[string]*job
	order    []string
	nextID   int
	// nextSeq is the admission sequence: each accepted sweep takes the
	// next value, giving the scheduler its FIFO and queue-position key.
	nextSeq int
	// running counts dispatched, not-yet-terminal jobs — the occupancy
	// of the MaxJobs slots the scheduler fills.
	running int
	// sched holds the per-tenant queues, weights, rate buckets and
	// accounting; every access is under mu.
	sched *sched
	// totalDur/durCount average completed-job durations for the queued
	// ETA estimate.
	totalDur time.Duration
	durCount int

	// reg/met/diag are the observability subsystem: the metrics
	// registry served on GET /metrics, the daemon's own instruments,
	// and the diagnostics ring behind GET /v1/events.
	reg  *obs.Registry
	met  *serverMetrics
	diag *diagLog

	// now is the admission clock, swappable in tests to make
	// rate-limit behavior deterministic.
	now func() time.Time
	// dispatchHook, when set (tests), observes every dispatch in
	// order: the scheduler-determinism probe.
	dispatchHook func(jobID, tenantID string)
	// sweepHook, when set (tests), replaces the execution backend —
	// a deterministic fake sweep without Labs or workers.
	sweepHook func(scale int) sweepFn
}

// maxScale bounds the client-supplied workload divisor. The paper runs at
// scale 1 and the smoke tests at 8; anything past this is degenerate and
// would only serve to make the daemon instantiate unbounded Labs.
const maxScale = 256

// defaultMaxBody bounds POST /v1/sweeps bodies when Config.MaxBody is
// zero: generous for any real grid (a point spec is ~100 bytes), small
// enough that an oversized request is a 413, not an allocation.
const defaultMaxBody = 8 << 20

// New returns a server with no Labs instantiated yet; each scale's Lab is
// created on first use and lives for the server's lifetime.
func New(cfg Config) *Server {
	reg := cfg.Tenants
	if reg == nil {
		reg = tenant.Open(tenant.Limits{})
	}
	obsReg := cfg.Metrics
	if obsReg == nil {
		obsReg = obs.NewRegistry()
	}
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		tenants: reg,
		labs:    map[int]*hotnoc.Lab{},
		jobs:    map[string]*job{},
		sched:   newSched(),
		reg:     obsReg,
		met:     newServerMetrics(obsReg),
		diag:    newDiagLog(cfg.EventBuffer),
		now:     time.Now,
	}
	if !cfg.DisableMetrics {
		s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	}
	s.mux.HandleFunc("POST /v1/sweeps", s.handleCreateSweep)
	s.mux.HandleFunc("GET /v1/events", s.handleDiagEvents)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /v1/builds/{config}", s.handleBuild)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s
}

// tenantKey carries the authenticated tenant through the request
// context.
type tenantKey struct{}

// ServeHTTP authenticates every /v1 request against the tenant
// registry before routing; /healthz stays open for liveness probes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/") {
		tn, err := s.registry().Authenticate(r.Header.Get("Authorization"))
		if err != nil {
			status := http.StatusUnauthorized
			if errors.Is(err, tenant.ErrDisabled) {
				status = http.StatusForbidden
			}
			w.Header().Set("WWW-Authenticate", `Bearer realm="hotnocd"`)
			writeError(w, status, "%v", err)
			return
		}
		r = r.WithContext(context.WithValue(r.Context(), tenantKey{}, tn))
	}
	s.mux.ServeHTTP(w, r)
}

// requestTenant returns the tenant ServeHTTP authenticated.
func requestTenant(r *http.Request) *tenant.Tenant {
	tn, _ := r.Context().Value(tenantKey{}).(*tenant.Tenant)
	return tn
}

// registry returns the current tenant registry — always through here,
// because SetTenants may swap it at runtime.
func (s *Server) registry() *tenant.Registry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenants
}

// SetTenants swaps the tenant registry at runtime — the SIGHUP
// hot-reload path. New requests authenticate against reg immediately.
// Tenants the scheduler already tracks have their weight and limits
// updated in place, so queued and running jobs keep flowing under the
// new policy without a restart; tenants removed from reg simply stop
// authenticating (their historical accounting stays on /v1/stats). A
// nil reg reverts to an open daemon.
func (s *Server) SetTenants(reg *tenant.Registry) {
	if reg == nil {
		reg = tenant.Open(tenant.Limits{})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tenants = reg
	byID := map[string]*tenant.Tenant{}
	for _, t := range reg.All() {
		byID[t.ID] = t
	}
	if anon := reg.Anonymous(); anon != nil {
		byID[anon.ID] = anon
	}
	for id, ts := range s.sched.tenants {
		t, ok := byID[id]
		if !ok {
			continue
		}
		ts.weight = max(1, t.Weight)
		ts.limits = t.Limits
	}
}

// Shutdown drains the server: new sweeps are rejected with 503 while
// in-flight jobs run to completion. If ctx expires first, the remaining
// jobs are canceled and Shutdown returns ctx.Err after they unwind.
// Event streams of finished jobs keep serving until the HTTP server
// itself closes them. Setting the draining flag and registering a job
// share one mutex, so no job can slip in after Shutdown starts waiting.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	// End the diagnostics stream first: /v1/events followers drain and
	// return, so they cannot hold the HTTP server's own shutdown open.
	s.diag.close()
	done := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			// Jobs still waiting in a tenant queue terminate directly
			// (nothing is running on their behalf); dispatched jobs
			// unwind through their sweep context.
			if !s.terminateQueuedLocked(j) {
				j.cancel()
			}
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// labFor returns the shared Lab for one scale, creating it on first use.
func (s *Server) labFor(scale int) *hotnoc.Lab {
	s.mu.Lock()
	defer s.mu.Unlock()
	lab, ok := s.labs[scale]
	if !ok {
		// Each scale's Lab registers its pipeline instruments (stage
		// latencies, cache requests, evaluated points) in the daemon's
		// registry, labeled by scale.
		lab = hotnoc.NewLab(
			hotnoc.WithScale(scale),
			hotnoc.WithWorkers(s.cfg.Workers),
			hotnoc.WithCacheDir(s.cfg.CacheDir),
			hotnoc.WithCacheLimit(s.cfg.CacheLimit),
			hotnoc.WithMetrics(s.reg),
		)
		s.labs[scale] = lab
	}
	return lab
}

// sweepFor returns the execution backend jobs at one scale run on: the
// shared local Lab (or a test's fake sweep).
func (s *Server) sweepFor(scale int) sweepFn {
	if s.sweepHook != nil {
		return s.sweepHook(scale)
	}
	return s.labFor(scale).SweepWithProgress
}

func (s *Server) handleCreateSweep(w http.ResponseWriter, r *http.Request) {
	maxBody := s.cfg.MaxBody
	if maxBody <= 0 {
		maxBody = defaultMaxBody
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	var req wire.SweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"sweep request exceeds the %d-byte body limit", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad sweep request: %v", err)
		return
	}
	if len(req.Points) == 0 {
		writeError(w, http.StatusBadRequest, "sweep has no points")
		return
	}
	scale := req.Scale
	if scale <= 0 {
		scale = 1
	}
	if scale > maxScale {
		writeError(w, http.StatusBadRequest, "scale %d exceeds the maximum of %d", scale, maxScale)
		return
	}
	pts := make([]hotnoc.SweepPoint, len(req.Points))
	for i, ps := range req.Points {
		p, err := ps.Point()
		if err != nil {
			writeError(w, http.StatusBadRequest, "point %d: %v", i, err)
			return
		}
		pts[i] = p
	}
	// The same fail-fast grid validation a Lab applies, run at
	// submission so a malformed grid — of either kind — is a 400 naming
	// the offending point, not a job failing mid-stream.
	if err := hotnoc.ValidateSweep(pts); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	cur := requestTenant(r)
	sweep := s.sweepFor(scale)
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	ts := s.sched.state(cur)
	// Per-tenant admission: the submit-rate bucket and the queued-job
	// bound reject with 429 + Retry-After; hitting the running-job
	// quota or the global MaxJobs slots is not a rejection — the job
	// queues and the weighted-fair scheduler dispatches it later.
	if ok, retry := ts.takeToken(s.now()); !ok {
		s.met.rejected(ts.id)
		s.mu.Unlock()
		cancel()
		s.diag.emit(wire.DiagEvent{Type: wire.DiagTenantThrottled, Tenant: cur.ID,
			Reason: "submit rate exceeded"})
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests,
			"tenant %q is over its %.3g jobs/sec submit rate", ts.id, ts.limits.RatePerSec)
		return
	}
	if ts.limits.MaxQueued > 0 && len(ts.queue) >= ts.limits.MaxQueued {
		s.met.rejected(ts.id)
		s.mu.Unlock()
		cancel()
		s.diag.emit(wire.DiagEvent{Type: wire.DiagTenantThrottled, Tenant: cur.ID,
			Reason: "queued-job bound reached"})
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeError(w, http.StatusTooManyRequests,
			"tenant %q already has its maximum of %d jobs queued", ts.id, ts.limits.MaxQueued)
		return
	}
	s.pruneLocked(time.Now())
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	s.nextSeq++
	j := newJob(ctx, id, cur.ID, scale, len(pts), s.nextSeq, cancel)
	s.jobs[id] = j
	s.order = append(s.order, id)
	// Registering with the WaitGroup under the same lock that Shutdown
	// takes to set draining guarantees Shutdown's Wait sees this job —
	// queued jobs included.
	s.jobsWG.Add(1)
	// Submitted before queued before dispatched: emitting under s.mu
	// (diag is a leaf lock) keeps the lifecycle order intact even
	// against a dispatch racing in from another job's completion.
	s.diag.emit(wire.DiagEvent{Type: wire.DiagJobSubmitted, Tenant: cur.ID,
		Job: id, Points: len(pts)})
	s.sched.enqueue(ts, &queuedJob{j: j, sweep: sweep, pts: pts})
	s.met.jobQueued(ts.id)
	s.diag.emit(wire.DiagEvent{Type: wire.DiagJobQueued, Tenant: cur.ID,
		Job: id, State: wire.JobQueued})
	s.dispatchLocked()
	created := wire.SweepCreated{ID: id, Points: len(pts), Tenant: cur.ID}
	created.State = j.stateNow()
	if created.State == wire.JobQueued {
		created.QueuePos = s.sched.queuedBefore(j.seq) + 1
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, created)
}

// dispatchLocked fills free MaxJobs slots from the tenant queues in
// weighted-fair order, starting each popped job's sweep goroutine.
// Callers hold s.mu.
func (s *Server) dispatchLocked() {
	slots := -1
	if s.cfg.MaxJobs > 0 {
		slots = s.cfg.MaxJobs - s.running
		if slots <= 0 {
			return
		}
	}
	for _, d := range s.sched.dispatch(slots) {
		s.running++
		d.qj.j.start()
		s.met.jobDispatched(d.ts.id, time.Since(d.qj.j.createdAt))
		s.diag.emit(wire.DiagEvent{Type: wire.DiagJobDispatched, Tenant: d.ts.id,
			Job: d.qj.j.id, State: wire.JobRunning})
		if s.dispatchHook != nil {
			s.dispatchHook(d.qj.j.id, d.ts.id)
		}
		go s.runJob(d.ts, d.qj)
	}
}

// terminateQueuedLocked completes a still-queued job as canceled
// without dispatching it: it leaves its tenant's queue, its admission
// is released, and its event stream terminates. Reports false when the
// job is not queued (already dispatched or terminal). Callers hold
// s.mu.
func (s *Server) terminateQueuedLocked(j *job) bool {
	ts, ok := s.sched.tenants[j.tenant]
	if !ok {
		return false
	}
	if _, ok := s.sched.removeQueued(ts, j.id); !ok {
		return false
	}
	j.cancel()
	s.met.jobTerminatedQueued(ts.id, wire.JobCanceled)
	j.fail(wire.JobCanceled, errors.New("canceled while queued"))
	s.diag.emit(wire.DiagEvent{Type: wire.DiagJobFinished, Tenant: j.tenant,
		Job: j.id, State: wire.JobCanceled, Reason: "canceled while queued"})
	s.jobsWG.Done()
	return true
}

// runJob drives one dispatched sweep to completion, appending every
// progress event and outcome to the job's log and crediting evaluated
// points to the job's tenant. It owns the job's terminal state. The
// tenant's counters are recorded before that state is published, so a
// client that sees its job end and reads /v1/stats at once finds the
// job counted; afterwards runJob releases the job's slot, applies the
// retention policy and dispatches whatever the freed slot admits next.
func (s *Server) runJob(ts *tenantState, qj *queuedJob) {
	j := qj.j
	started := time.Now()
	defer s.jobsWG.Done()
	defer func() {
		state := j.stateNow()
		s.mu.Lock()
		s.running--
		ts.running--
		if state == wire.JobDone {
			s.totalDur += time.Since(started)
			s.durCount++
		}
		s.pruneLocked(time.Now())
		s.dispatchLocked()
		s.mu.Unlock()
		s.diag.emit(wire.DiagEvent{Type: wire.DiagJobFinished, Tenant: j.tenant,
			Job: j.id, State: state, Points: j.doneNow(), Reason: j.errNow()})
	}()
	defer j.cancel()
	idx := 0
	progress := func(ev hotnoc.Event) {
		// The pipeline stage the job is in, for live introspection on
		// GET /v1/jobs/{id}. Evaluate-done events mean the job reached
		// the evaluation stage; start events mark the earlier stages.
		switch ev.Stage {
		case hotnoc.StageBuildStart:
			j.setStage("build")
		case hotnoc.StageCharacterizeStart:
			j.setStage("characterize")
		case hotnoc.StageEvaluateDone:
			j.setStage("evaluate")
		}
		j.append(wire.EventProgress, wire.FromEvent(ev))
	}
	// Resolve the tenant's served-points counter once; the per-outcome
	// cost is then a single atomic increment.
	points := s.met.pointsCounter(ts.id)
	for out, err := range qj.sweep(j.ctx, qj.pts, progress) {
		if err != nil {
			state := wire.JobFailed
			if errors.Is(err, context.Canceled) {
				state = wire.JobCanceled
			}
			s.met.jobFinished(ts.id, state)
			j.fail(state, err)
			return
		}
		points.Inc()
		j.append(wire.EventOutcome, wire.FromOutcome(idx, out))
		idx++
	}
	s.met.jobFinished(ts.id, wire.JobDone)
	j.finish()
}

// retryAfterSeconds is the Retry-After hint on queued-job-bound 429
// responses. Sweep jobs run for seconds to minutes, so a short constant
// backoff is honest without being aggressive.
const retryAfterSeconds = 5

// pruneLocked applies the retention policy to finished jobs: first the
// TTL (RetainFor), then the count cap (RetainJobs), forgetting
// oldest-finished first. Running jobs are never touched. Callers hold
// s.mu. Event streams already attached to a forgotten job keep serving
// from their own reference; the job just stops being addressable.
func (s *Server) pruneLocked(now time.Time) {
	if s.cfg.RetainFor <= 0 && s.cfg.RetainJobs <= 0 {
		return
	}
	type finished struct {
		id string
		at time.Time
	}
	var fin []finished
	for _, id := range s.order {
		j, ok := s.jobs[id]
		if !ok {
			continue
		}
		if at, done := j.terminalAt(); done {
			fin = append(fin, finished{id: id, at: at})
		}
	}
	sort.Slice(fin, func(i, k int) bool { return fin[i].at.Before(fin[k].at) })
	drop := map[string]bool{}
	if s.cfg.RetainFor > 0 {
		for _, f := range fin {
			if now.Sub(f.at) >= s.cfg.RetainFor {
				drop[f.id] = true
			}
		}
	}
	if s.cfg.RetainJobs > 0 {
		kept := 0
		for i := len(fin) - 1; i >= 0; i-- {
			if drop[fin[i].id] {
				continue
			}
			kept++
			if kept > s.cfg.RetainJobs {
				drop[fin[i].id] = true
			}
		}
	}
	if len(drop) == 0 {
		return
	}
	for id := range drop {
		delete(s.jobs, id)
	}
	s.order = slices.DeleteFunc(s.order, func(id string) bool { return drop[id] })
}

// jobByID returns the job with the given id if it belongs to tn. Other
// tenants' jobs are invisible — a 404 indistinguishable from absence,
// so job ids do not leak activity across tenants.
func (s *Server) jobByID(id string, tn *tenant.Tenant) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil || (tn != nil && j.tenant != tn.ID) {
		return nil
	}
	return j
}

// jobInfo returns j's wire description, extending queued jobs with
// their submission-order queue position and, once the daemon has
// completed enough jobs to know its pace, a rough ETA. Callers must not
// hold s.mu.
func (s *Server) jobInfo(j *job) wire.JobInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobInfoLocked(j)
}

func (s *Server) jobInfoLocked(j *job) wire.JobInfo {
	info := j.snapshot()
	if info.State == wire.JobRunning {
		// A running job's pace is its own best predictor: extrapolate
		// the mean per-point time over the remaining points. Before the
		// first outcome there is nothing to extrapolate from.
		if info.Done > 0 && info.Done < info.Points && !info.StartedAt.IsZero() {
			elapsed := time.Since(info.StartedAt).Seconds()
			info.EtaSec = elapsed / float64(info.Done) * float64(info.Points-info.Done)
		}
		return info
	}
	if info.State != wire.JobQueued {
		return info
	}
	info.QueuePos = s.sched.queuedBefore(j.seq) + 1
	if s.durCount > 0 {
		mean := (s.totalDur / time.Duration(s.durCount)).Seconds()
		slots := s.cfg.MaxJobs
		if slots <= 0 {
			// No global bound: the tenant's own running quota is the only
			// thing a queued job can be waiting on.
			if ts, ok := s.sched.tenants[j.tenant]; ok && ts.limits.MaxRunning > 0 {
				slots = ts.limits.MaxRunning
			} else {
				slots = 1
			}
		}
		info.EtaSec = float64(info.QueuePos) * mean / float64(slots)
	}
	return info
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"), requestTenant(r))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ka := time.NewTicker(s.keepAlive())
	defer ka.Stop()
	i := 0
	for {
		batch, complete, more := j.next(i)
		for _, m := range batch {
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", m.event, m.data); err != nil {
				return
			}
		}
		if len(batch) > 0 {
			flusher.Flush()
			i += len(batch)
		}
		if complete {
			return
		}
		select {
		case <-more:
		case <-ka.C:
			if !writeKeepAlive(w, flusher) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// keepAlive is the SSE keep-alive interval (Config.KeepAlive).
func (s *Server) keepAlive() time.Duration {
	if s.cfg.KeepAlive > 0 {
		return s.cfg.KeepAlive
	}
	return 15 * time.Second
}

// writeKeepAlive emits an SSE comment frame on an idle stream — clients
// ignore comment lines by spec, but intermediaries with idle timeouts
// see traffic. Reports whether the connection is still writable.
func writeKeepAlive(w http.ResponseWriter, flusher http.Flusher) bool {
	if _, err := fmt.Fprint(w, ": keep-alive\n\n"); err != nil {
		return false
	}
	flusher.Flush()
	return true
}

// handleJobs lists the requesting tenant's jobs — each tenant sees only
// its own.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	tn := requestTenant(r)
	s.mu.Lock()
	s.pruneLocked(time.Now())
	list := wire.JobList{Jobs: []wire.JobInfo{}}
	for _, id := range s.order {
		j, ok := s.jobs[id]
		if !ok || (tn != nil && j.tenant != tn.ID) {
			continue
		}
		list.Jobs = append(list.Jobs, s.jobInfoLocked(j))
	}
	s.mu.Unlock()
	writeJSON(w, list)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"), requestTenant(r))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, s.jobInfo(j))
}

// handleCancelJob cancels a job. A still-queued job terminates
// immediately (it leaves its tenant's queue and never runs); a running
// job's context is canceled and the sweep unwinds to the canceled state
// asynchronously (its event stream terminates with an error event).
// Deleting a finished job forgets it.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.jobByID(id, requestTenant(r))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	s.mu.Lock()
	switch {
	case s.terminateQueuedLocked(j):
		// Canceled before dispatch; nothing was running on its behalf.
	case j.terminal():
		delete(s.jobs, id)
		s.order = slices.DeleteFunc(s.order, func(o string) bool { return o == id })
	default:
		j.cancel()
	}
	info := s.jobInfoLocked(j)
	s.mu.Unlock()
	writeJSON(w, info)
}

func (s *Server) handleBuild(w http.ResponseWriter, r *http.Request) {
	config := r.PathValue("config")
	if _, err := hotnoc.ConfigByName(config); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	scale := 1
	if q := r.URL.Query().Get("scale"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 || n > maxScale {
			writeError(w, http.StatusBadRequest, "bad scale %q (want 1..%d)", q, maxScale)
			return
		}
		scale = n
	}
	rep, err := s.labFor(scale).Placement(r.Context(), config)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, rep)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.pruneLocked(time.Now())
	scales := make([]int, 0, len(s.labs))
	for scale := range s.labs {
		scales = append(scales, scale)
	}
	sort.Ints(scales)
	labs := make([]hotnoc.LabStats, 0, len(scales))
	for _, scale := range scales {
		labs = append(labs, s.labs[scale].Stats())
	}
	var counts wire.JobCounts
	for _, j := range s.jobs {
		counts.Total++
		switch j.stateNow() {
		case wire.JobQueued:
			counts.Queued++
		case wire.JobRunning:
			counts.Running++
		case wire.JobDone:
			counts.Done++
		case wire.JobFailed:
			counts.Failed++
		case wire.JobCanceled:
			counts.Canceled++
		}
	}
	tenants := make([]wire.TenantStats, 0, len(s.sched.tenants))
	for _, ts := range s.sched.tenants {
		tenants = append(tenants, wire.TenantStats{
			ID:      ts.id,
			Weight:  ts.weight,
			Running: ts.running,
			Queued:  len(ts.queue),
		})
	}
	reg := s.tenants
	s.mu.Unlock()
	sort.Slice(tenants, func(i, k int) bool { return tenants[i].ID < tenants[k].ID })
	for i := range tenants {
		s.met.readTenant(&tenants[i])
	}

	st := wire.Stats{Jobs: counts, Labs: labs, Tenants: tenants, Limits: wire.Limits{
		MaxJobs:      s.cfg.MaxJobs,
		RetainJobs:   s.cfg.RetainJobs,
		RetainForSec: s.cfg.RetainFor.Seconds(),
		AuthRequired: reg.AuthRequired(),
	}}
	writeJSON(w, st)
}

func writeJSON(w http.ResponseWriter, v any) {
	if w.Header().Get("Content-Type") == "" {
		w.Header().Set("Content-Type", "application/json")
	}
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(wire.ErrorMsg{Error: fmt.Sprintf(format, args...)})
}
