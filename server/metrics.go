package server

import (
	"net/http"
	"time"

	"hotnoc/obs"
	"hotnoc/server/wire"
)

// serverMetrics is the daemon's own instrument set: scheduler depth
// gauges, queue-wait and job-lifecycle counters, all per-tenant where a
// tenant is accountable. It is always built, whether or not GET /metrics
// is routed: the per-tenant counters are the only store of the
// accounting /v1/stats reports, so each daemon needs a registry of its
// own.
//
// Gauges are updated explicitly at the scheduler's mutation points
// (enqueue, dispatch, terminal) rather than through scrape-time
// GaugeFunc callbacks: a callback reading scheduler state would need
// s.mu, and s.mu is held around Lab creation, which registers
// instruments — taking the registry lock. Explicit updates keep the two
// locks strictly ordered (server → registry, never back).
type serverMetrics struct {
	reg *obs.Registry

	queueWait   *obs.Histogram
	jobsRunning *obs.Gauge
	jobsQueued  *obs.Gauge
}

// The per-tenant counters /v1/stats reads back.
const (
	jobsTotalName = "hotnocd_jobs_total"
	rejectedName  = "hotnocd_submissions_rejected_total"
	pointsName    = "hotnocd_points_total"
)

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		reg: reg,
		queueWait: reg.Histogram("hotnocd_queue_wait_seconds",
			"Time sweep jobs spent queued between admission and dispatch.", nil, nil),
		jobsRunning: reg.Gauge("hotnocd_jobs_running",
			"Sweep jobs currently running.", nil),
		jobsQueued: reg.Gauge("hotnocd_jobs_queued",
			"Sweep jobs currently waiting in tenant queues.", nil),
	}
}

// tenantQueueDepth is the per-tenant slice of the queued-jobs gauge.
func (m *serverMetrics) tenantQueueDepth(tenant string) *obs.Gauge {
	return m.reg.Gauge("hotnocd_tenant_jobs_queued",
		"Sweep jobs waiting in one tenant's queue.", obs.Labels{"tenant": tenant})
}

// jobQueued records a job entering its tenant's queue.
func (m *serverMetrics) jobQueued(tenant string) {
	m.jobsQueued.Add(1)
	m.tenantQueueDepth(tenant).Add(1)
}

// jobDispatched records a queued job winning a slot after wait.
func (m *serverMetrics) jobDispatched(tenant string, wait time.Duration) {
	m.jobsQueued.Add(-1)
	m.tenantQueueDepth(tenant).Add(-1)
	m.jobsRunning.Add(1)
	m.queueWait.Observe(wait.Seconds())
}

// jobFinished records a dispatched job reaching the terminal state.
func (m *serverMetrics) jobFinished(tenant, state string) {
	m.jobsRunning.Add(-1)
	m.jobsTotal(tenant, state).Inc()
}

// jobTerminatedQueued records a job canceled out of its queue without
// ever running.
func (m *serverMetrics) jobTerminatedQueued(tenant, state string) {
	m.jobsQueued.Add(-1)
	m.tenantQueueDepth(tenant).Add(-1)
	m.jobsTotal(tenant, state).Inc()
}

func (m *serverMetrics) jobsTotal(tenant, state string) *obs.Counter {
	return m.reg.Counter(jobsTotalName,
		"Sweep jobs finished, by tenant and terminal state.",
		obs.Labels{"tenant": tenant, "state": state})
}

// rejected records an admission 429 (submit rate or queue bound).
func (m *serverMetrics) rejected(tenant string) {
	m.reg.Counter(rejectedName,
		"Sweep submissions rejected with 429, by tenant.",
		obs.Labels{"tenant": tenant}).Inc()
}

// pointsCounter resolves one tenant's served-points counter. Resolved
// once per job, then Inc'd per outcome — the registry lookup stays off
// the streaming path.
func (m *serverMetrics) pointsCounter(tenant string) *obs.Counter {
	return m.reg.Counter(pointsName,
		"Grid points streamed to clients, by tenant.",
		obs.Labels{"tenant": tenant})
}

// readTenant fills row's finished-job, rejection and point counts from
// the counters above. A series never incremented reads as zero and is
// not created, so /v1/stats leaves the /metrics exposition unchanged.
func (m *serverMetrics) readTenant(row *wire.TenantStats) {
	jobs := func(state string) int {
		return int(m.reg.CounterValue(jobsTotalName, obs.Labels{"tenant": row.ID, "state": state}))
	}
	row.Done = jobs(wire.JobDone)
	row.Failed = jobs(wire.JobFailed)
	row.Canceled = jobs(wire.JobCanceled)
	row.Rejected = int(m.reg.CounterValue(rejectedName, obs.Labels{"tenant": row.ID}))
	row.Points = int64(m.reg.CounterValue(pointsName, obs.Labels{"tenant": row.ID}))
}

// handleMetrics serves GET /metrics in Prometheus text exposition
// format. The route lives outside /v1 and carries no tenant auth — like
// /healthz it is infrastructure surface, expected to be reachable by a
// scraper, not by tenants.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}
