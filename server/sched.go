package server

import (
	"container/heap"
	"context"
	"iter"
	"math"
	"slices"
	"time"

	"hotnoc"
	"hotnoc/server/tenant"
)

// sched is the daemon's weighted-fair job scheduler: stride scheduling
// over per-tenant FIFO queues, selected through a priority heap keyed
// by per-tenant virtual time.
//
// Every tenant owns a "pass" — its position on the shared virtual
// timeline. Dispatching one of its jobs advances the pass by 1/weight,
// so a weight-2 tenant's pass moves half as fast and it is selected
// twice as often as a weight-1 tenant when both queues are saturated;
// and because every dispatch advances the dispatching tenant's pass
// past the scheduler's virtual time, a backlogged weight-1 tenant is
// reached after at most ~weight_total/1 dispatches — no tenant starves.
// A tenant that goes idle and returns re-joins at the current virtual
// time instead of replaying its idle past, so idleness is not banked
// into a later monopoly. All tie-breaks (equal pass) resolve by tenant
// id, and per-tenant queues are strict FIFO, so dispatch order is a
// pure function of the submission sequence — the property the
// scheduler tests pin down.
//
// sched does no locking; the Server drives it under its own mutex.
type sched struct {
	tenants map[string]*tenantState
	// vtime is the scheduler's virtual time: the pass of the most
	// recently dispatched tenant at the moment it was selected (i.e.
	// the running minimum). Newly-active tenants join here.
	vtime float64
}

func newSched() *sched {
	return &sched{tenants: map[string]*tenantState{}}
}

// tenantState is one tenant's scheduling state. The identity fields are
// fixed at creation; everything else mutates under the server's mutex.
// Its finished-job, rejection and point counts live only in the
// daemon's metrics registry (serverMetrics).
type tenantState struct {
	id     string
	weight int
	limits tenant.Limits

	pass  float64
	queue []*queuedJob

	// running counts this tenant's dispatched-but-not-terminal jobs,
	// bounded by limits.MaxRunning.
	running int

	// Submit-rate token bucket (limits.RatePerSec / limits.Burst).
	tokens   float64
	lastFill time.Time
}

// sweepFn is the execution backend a dispatched job runs its grid on:
// the scale's Lab.SweepWithProgress, or a test's fake sweep. It streams
// outcomes in point order, which the job machinery — event log, SSE
// replay, accounting — relies on.
type sweepFn func(ctx context.Context, pts []hotnoc.SweepPoint, progress func(hotnoc.Event)) iter.Seq2[hotnoc.SweepOutcome, error]

// queuedJob is one admitted job waiting for dispatch, carrying
// everything runJob needs the moment a slot frees.
type queuedJob struct {
	j     *job
	sweep sweepFn
	pts   []hotnoc.SweepPoint
}

// state returns t's scheduling state, creating it at the current
// virtual time on first contact.
func (sc *sched) state(t *tenant.Tenant) *tenantState {
	ts, ok := sc.tenants[t.ID]
	if !ok {
		ts = &tenantState{
			id:     t.ID,
			weight: max(1, t.Weight),
			limits: t.Limits,
			pass:   sc.vtime,
		}
		sc.tenants[t.ID] = ts
	}
	return ts
}

// enqueue appends qj to ts's FIFO. A tenant whose queue was empty
// re-joins the virtual timeline at the current virtual time.
func (sc *sched) enqueue(ts *tenantState, qj *queuedJob) {
	if len(ts.queue) == 0 {
		ts.pass = math.Max(ts.pass, sc.vtime)
	}
	ts.queue = append(ts.queue, qj)
}

// eligible reports whether ts has a queued job that its running-job
// quota permits dispatching.
func (ts *tenantState) eligible() bool {
	return len(ts.queue) > 0 && (ts.limits.MaxRunning <= 0 || ts.running < ts.limits.MaxRunning)
}

// dispatched pairs a popped job with the tenant it was charged to.
type dispatched struct {
	ts *tenantState
	qj *queuedJob
}

// dispatch pops up to slots jobs in weighted-fair order, marking each
// job's tenant as running one more. slots < 0 means no global bound —
// dispatch everything eligible.
func (sc *sched) dispatch(slots int) []dispatched {
	h := make(tenantHeap, 0, len(sc.tenants))
	for _, ts := range sc.tenants {
		if ts.eligible() {
			h = append(h, ts)
		}
	}
	heap.Init(&h)
	var out []dispatched
	for (slots < 0 || len(out) < slots) && h.Len() > 0 {
		ts := heap.Pop(&h).(*tenantState)
		qj := ts.queue[0]
		ts.queue[0] = nil
		ts.queue = ts.queue[1:]
		sc.vtime = ts.pass
		ts.pass += 1 / float64(ts.weight)
		ts.running++
		out = append(out, dispatched{ts: ts, qj: qj})
		if ts.eligible() {
			heap.Push(&h, ts)
		}
	}
	return out
}

// removeQueued withdraws the queued job with the given id from ts's
// FIFO (a cancellation before dispatch). ok=false means the job is not
// queued — already dispatched or never this tenant's.
func (sc *sched) removeQueued(ts *tenantState, id string) (*queuedJob, bool) {
	for i, qj := range ts.queue {
		if qj.j.id == id {
			ts.queue = slices.Delete(ts.queue, i, i+1)
			return qj, true
		}
	}
	return nil, false
}

// queuedBefore counts queued jobs across every tenant admitted before
// seq — the submission-order queue position surfaced on job info. The
// weighted-fair dispatcher may reorder across tenants, so this is a
// position estimate, not a contract.
func (sc *sched) queuedBefore(seq int) int {
	n := 0
	for _, ts := range sc.tenants {
		for _, qj := range ts.queue {
			if qj.j.seq < seq {
				n++
			}
		}
	}
	return n
}

// takeToken draws one submit token from ts's rate bucket, refilled at
// limits.RatePerSec up to limits.Burst. A dry bucket reports the whole
// seconds until the next token accrues — the 429's Retry-After.
func (ts *tenantState) takeToken(now time.Time) (ok bool, retryAfter int) {
	rate := ts.limits.RatePerSec
	if rate <= 0 {
		return true, 0
	}
	burst := float64(ts.limits.Burst)
	if burst < 1 {
		burst = 1
	}
	if ts.lastFill.IsZero() {
		ts.tokens = burst
	} else {
		ts.tokens = math.Min(burst, ts.tokens+now.Sub(ts.lastFill).Seconds()*rate)
	}
	ts.lastFill = now
	if ts.tokens >= 1 {
		ts.tokens--
		return true, 0
	}
	return false, int(math.Ceil((1 - ts.tokens) / rate))
}

// tenantHeap orders tenants by (pass, id): the least virtual time
// dispatches first, ties resolved by id so selection is a total order
// and therefore deterministic.
type tenantHeap []*tenantState

func (h tenantHeap) Len() int { return len(h) }
func (h tenantHeap) Less(i, k int) bool {
	if h[i].pass != h[k].pass {
		return h[i].pass < h[k].pass
	}
	return h[i].id < h[k].id
}
func (h tenantHeap) Swap(i, k int) { h[i], h[k] = h[k], h[i] }
func (h *tenantHeap) Push(x any)   { *h = append(*h, x.(*tenantState)) }
func (h *tenantHeap) Pop() any {
	old := *h
	n := len(old)
	ts := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ts
}
