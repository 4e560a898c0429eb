// Package wire defines the JSON/SSE protocol spoken between the hotnocd
// daemon (hotnoc/server) and its clients (hotnoc/client): request and
// response bodies for the REST endpoints and the event payloads of the
// sweep SSE stream.
//
// Numbers survive the wire bit for bit: encoding/json emits float64 in
// the shortest form that round-trips exactly, so outcomes streamed from a
// daemon are bitwise identical to outcomes computed in process — the
// property the figure1 CLI's -server mode relies on for byte-identical
// JSON output.
package wire

import (
	"fmt"
	"time"

	"hotnoc"
	"hotnoc/internal/chipcfg"
	"hotnoc/internal/core"
	"hotnoc/internal/sim"
)

// SSE event names on GET /v1/sweeps/{id}/events. A stream is a replayed
// prefix of the job's event log followed by live events: zero or more
// progress/outcome events, terminated by exactly one error or done event.
const (
	// EventProgress carries an EventMsg: a build/characterize/evaluate
	// pipeline notification attributed to this job.
	EventProgress = "progress"
	// EventOutcome carries an OutcomeMsg. Outcomes arrive in point order:
	// Index increments from 0 to the grid size minus one.
	EventOutcome = "outcome"
	// EventError carries an ErrorMsg and terminates the stream; the job
	// failed or was canceled.
	EventError = "error"
	// EventDone carries an empty object and terminates the stream; every
	// outcome was delivered.
	EventDone = "done"
	// EventState carries a StateMsg: a job lifecycle transition
	// (admitted to the queue, dispatched to run) attributed to the
	// job's tenant. Clients that only care about outcomes may ignore
	// these events.
	EventState = "state"
)

// Job states reported by JobInfo. A job is admitted in the queued
// state and dispatched to running by the weighted-fair scheduler as
// job slots free up.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// StateMsg is one job lifecycle transition, streamed as an EventState.
type StateMsg struct {
	State string `json:"state"`
	// Tenant is the tenant the job is charged to.
	Tenant string `json:"tenant,omitempty"`
}

// SweepRequest is the body of POST /v1/sweeps.
type SweepRequest struct {
	// Scale divides the workload size (0 means the server default of 1 =
	// paper scale). The daemon keeps one Lab per scale, so every job at
	// one scale shares one build cache and one characterization cache.
	Scale int `json:"scale,omitempty"`
	// Points is the experiment grid, evaluated and streamed in order.
	Points []PointSpec `json:"points"`
}

// SweepCreated is the response of POST /v1/sweeps.
type SweepCreated struct {
	// ID names the job for the events, jobs and delete endpoints.
	ID string `json:"id"`
	// Points echoes the grid size.
	Points int `json:"points"`
	// Tenant is the tenant the job was charged to.
	Tenant string `json:"tenant,omitempty"`
	// State is the job's admission state: "running" when a slot was
	// free, "queued" when it waits for the weighted-fair scheduler.
	State string `json:"state,omitempty"`
	// QueuePos is the job's submission-order position among queued
	// jobs (1 = next in line), when queued. The scheduler may reorder
	// across tenants, so this is an estimate.
	QueuePos int `json:"queue_pos,omitempty"`
}

// Point kinds on the wire; an absent kind means periodic, so grids from
// pre-unification clients keep their meaning.
const (
	KindPeriodic = string(sim.KindPeriodic)
	KindReactive = string(sim.KindReactive)
)

// PointSpec is one grid cell in wire form: schemes travel by name and are
// resolved server-side, so only the paper's named schemes (and any the
// server knows) can cross the wire. Kind discriminates the experiment —
// empty or "periodic" evaluates the fixed-period policy with Blocks and
// ExcludeMigrationEnergy; "reactive" evaluates the threshold policy with
// the Reactive parameters.
type PointSpec struct {
	Config                 string        `json:"config"`
	Scheme                 string        `json:"scheme"`
	Kind                   string        `json:"kind,omitempty"`
	Blocks                 int           `json:"blocks,omitempty"`
	ExcludeMigrationEnergy bool          `json:"exclude_migration_energy,omitempty"`
	Reactive               *ReactiveSpec `json:"reactive,omitempty"`
}

// ReactiveSpec carries a reactive point's threshold-policy parameters.
// The scheme is the enclosing PointSpec's; zero fields take the
// server-side defaults of core.ReactiveConfig, so defaults applied on the
// daemon match defaults applied in process.
type ReactiveSpec struct {
	TriggerC     float64 `json:"trigger_c"`
	SimBlocks    int     `json:"sim_blocks,omitempty"`
	WarmupBlocks int     `json:"warmup_blocks,omitempty"`
	SensorQuantC float64 `json:"sensor_quant_c,omitempty"`
	Dt           float64 `json:"dt,omitempty"`
	// PeaksEvery downsamples the BlockPeaks timeline in the outcome
	// (see core.ReactiveConfig.PeaksEvery): 0/absent records every block
	// boundary, k>1 every k-th, negative omits the timeline — the knob
	// that keeps high-horizon remote sweeps from shipping one float per
	// block over the wire.
	PeaksEvery int `json:"peaks_every,omitempty"`
}

// FromPoint converts a grid point to wire form.
func FromPoint(p sim.Point) PointSpec {
	ps := PointSpec{
		Config:                 p.Config,
		Scheme:                 p.Scheme.Name,
		Blocks:                 p.Blocks,
		ExcludeMigrationEnergy: p.ExcludeMigrationEnergy,
	}
	if p.Reactive != nil {
		ps.Kind = KindReactive
		ps.Reactive = &ReactiveSpec{
			TriggerC:     p.Reactive.TriggerC,
			SimBlocks:    p.Reactive.SimBlocks,
			WarmupBlocks: p.Reactive.WarmupBlocks,
			SensorQuantC: p.Reactive.SensorQuantC,
			Dt:           p.Reactive.Dt,
			PeaksEvery:   p.Reactive.PeaksEvery,
		}
	}
	return ps
}

// Point resolves the spec into a runnable grid point. It fails when the
// scheme name is not one of the paper's five — a remote daemon cannot run
// a custom scheme whose step function only exists in the client process —
// or when the kind is unknown or inconsistent with the reactive payload.
func (ps PointSpec) Point() (sim.Point, error) {
	scheme, err := core.SchemeByName(ps.Scheme)
	if err != nil {
		return sim.Point{}, err
	}
	p := sim.Point{
		Config:                 ps.Config,
		Scheme:                 scheme,
		Blocks:                 ps.Blocks,
		ExcludeMigrationEnergy: ps.ExcludeMigrationEnergy,
	}
	switch ps.Kind {
	case "", KindPeriodic:
		if ps.Reactive != nil {
			return sim.Point{}, fmt.Errorf("periodic point carries reactive parameters")
		}
	case KindReactive:
		if ps.Reactive == nil {
			return sim.Point{}, fmt.Errorf("reactive point carries no reactive parameters")
		}
		p.Reactive = &core.ReactiveConfig{
			Scheme:       scheme,
			TriggerC:     ps.Reactive.TriggerC,
			SimBlocks:    ps.Reactive.SimBlocks,
			WarmupBlocks: ps.Reactive.WarmupBlocks,
			SensorQuantC: ps.Reactive.SensorQuantC,
			Dt:           ps.Reactive.Dt,
			PeaksEvery:   ps.Reactive.PeaksEvery,
		}
	default:
		return sim.Point{}, fmt.Errorf("unknown point kind %q", ps.Kind)
	}
	return p, nil
}

// BuiltInfo is the metadata slice of a calibrated build that crosses the
// wire with each outcome: enough for every consumer of sweep results
// (figure tables, heat-map dimensions, period conversion) without
// shipping the multi-megabyte simulation state itself.
type BuiltInfo struct {
	Config      string  `json:"config"`
	GridW       int     `json:"grid_w"`
	GridH       int     `json:"grid_h"`
	EnergyScale float64 `json:"energy_scale"`
	StaticPeakC float64 `json:"static_peak_c"`
	BlockCycles int64   `json:"block_cycles"`
	ClockHz     float64 `json:"clock_hz"`
}

// FromBuilt extracts the wire metadata from a calibrated build.
func FromBuilt(config string, b *chipcfg.Built) BuiltInfo {
	return BuiltInfo{
		Config:      config,
		GridW:       b.System.Grid.W,
		GridH:       b.System.Grid.H,
		EnergyScale: b.EnergyScale,
		StaticPeakC: b.StaticPeakC,
		BlockCycles: b.BlockCycles,
		ClockHz:     b.System.ClockHz,
	}
}

// OutcomeMsg is one evaluated grid point, streamed as an EventOutcome.
// Exactly one result arm is populated, matching the point's kind: Result
// for periodic points (omitted — all-zero — on reactive ones), Reactive
// for reactive points. Both arms are plain float64 data, so an outcome
// round-trips the wire bit for bit.
type OutcomeMsg struct {
	// Index is the point's position in the requested grid; outcomes
	// stream with Index strictly incrementing from 0.
	Index    int                  `json:"index"`
	Point    PointSpec            `json:"point"`
	Built    BuiltInfo            `json:"built"`
	Result   core.RunResult       `json:"result,omitzero"`
	Reactive *core.ReactiveResult `json:"reactive,omitempty"`
}

// FromOutcome converts one sweep outcome to wire form.
func FromOutcome(index int, o sim.Outcome) OutcomeMsg {
	return OutcomeMsg{
		Index:    index,
		Point:    FromPoint(o.Point),
		Built:    FromBuilt(o.Point.Config, o.Built),
		Result:   o.Result,
		Reactive: o.Reactive,
	}
}

// EventMsg is one pipeline progress notification, streamed as an
// EventProgress. It mirrors sim.Event field for field.
type EventMsg struct {
	Stage    string `json:"stage"`
	Config   string `json:"config,omitempty"`
	Scale    int    `json:"scale,omitempty"`
	Scheme   string `json:"scheme,omitempty"`
	Point    int    `json:"point"`
	Blocks   int    `json:"blocks,omitempty"`
	Kind     string `json:"kind,omitempty"`
	CacheHit bool   `json:"cache_hit,omitempty"`
}

// FromEvent converts a pipeline event to wire form.
func FromEvent(ev sim.Event) EventMsg {
	return EventMsg{
		Stage:    string(ev.Stage),
		Config:   ev.Config,
		Scale:    ev.Scale,
		Scheme:   ev.Scheme,
		Point:    ev.Point,
		Blocks:   ev.Blocks,
		Kind:     ev.Kind,
		CacheHit: ev.CacheHit,
	}
}

// Event converts the wire form back to a pipeline event.
func (m EventMsg) Event() sim.Event {
	return sim.Event{
		Stage:    sim.Stage(m.Stage),
		Config:   m.Config,
		Scale:    m.Scale,
		Scheme:   m.Scheme,
		Point:    m.Point,
		Blocks:   m.Blocks,
		Kind:     m.Kind,
		CacheHit: m.CacheHit,
	}
}

// JobInfo describes one sweep job, as returned by GET /v1/jobs and
// DELETE /v1/jobs/{id}.
type JobInfo struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Tenant is the tenant the job is charged to.
	Tenant string `json:"tenant,omitempty"`
	Scale  int    `json:"scale"`
	// Points is the grid size; Done counts outcomes delivered so far.
	// The wire names are points_total/points_done so a progress consumer
	// cannot mistake the pair for the submission's "points" grid field.
	Points int `json:"points_total"`
	Done   int `json:"points_done"`
	// Stage is the pipeline stage the job most recently advanced through
	// ("build", "characterize", "evaluate"); present only while running.
	Stage     string    `json:"stage,omitempty"`
	CreatedAt time.Time `json:"created_at"`
	// StartedAt is when the scheduler dispatched the job; zero
	// (omitted) while it is still queued.
	StartedAt time.Time `json:"started_at,omitzero"`
	// FinishedAt is when the job reached a terminal state; zero (omitted)
	// while running. Retention (see Config.RetainFor) measures from it.
	FinishedAt time.Time `json:"finished_at,omitzero"`
	// QueuePos is the job's submission-order position among queued
	// jobs (1 = next in line), present only while queued. The
	// weighted-fair scheduler may reorder across tenants, so this is
	// an estimate.
	QueuePos int `json:"queue_pos,omitempty"`
	// EtaSec is a rough seconds-to-completion estimate. Queued jobs
	// derive it from the mean duration of completed jobs (omitted while
	// the daemon has no history); running jobs extrapolate from their
	// own pace, elapsed/done × remaining, once at least one point is
	// done.
	EtaSec float64 `json:"eta_sec,omitempty"`
	// Error holds the failure message for failed or canceled jobs.
	Error string `json:"error,omitempty"`
}

// JobList is the response of GET /v1/jobs, ordered by job creation.
type JobList struct {
	Jobs []JobInfo `json:"jobs"`
}

// JobCounts aggregates jobs by state.
type JobCounts struct {
	Total    int `json:"total"`
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
}

// TenantStats is one tenant's accounting on GET /v1/stats: live
// queue/slot occupancy, terminal-state counts since daemon start,
// admission rejections (429s) and cumulative evaluated points.
type TenantStats struct {
	ID       string `json:"id"`
	Weight   int    `json:"weight"`
	Running  int    `json:"running"`
	Queued   int    `json:"queued"`
	Done     int    `json:"done"`
	Failed   int    `json:"failed"`
	Canceled int    `json:"canceled"`
	// Rejected counts submissions refused with 429: over the tenant's
	// submit rate or its queued-job bound.
	Rejected int `json:"rejected"`
	// Points is the cumulative number of grid points evaluated for
	// this tenant.
	Points int64 `json:"points"`
}

// Limits echoes the daemon's admission and retention configuration, so
// clients can see why a sweep was rejected with 429 or where a finished
// job went. Zero fields mean "unbounded".
type Limits struct {
	// MaxJobs bounds concurrently running sweeps; at the bound, new
	// submissions queue and the weighted-fair scheduler dispatches
	// them as slots free up.
	MaxJobs int `json:"max_jobs,omitempty"`
	// AuthRequired reports that the daemon was started with a tenants
	// file and unauthenticated requests are rejected (unless it also
	// allows the anonymous tenant).
	AuthRequired bool `json:"auth_required,omitempty"`
	// RetainJobs caps how many finished jobs (and their event logs) the
	// daemon keeps; the oldest-finished are forgotten first.
	RetainJobs int `json:"retain_jobs,omitempty"`
	// RetainForSec is the finished-job TTL in seconds.
	RetainForSec float64 `json:"retain_for_sec,omitempty"`
}

// Stats is the response of GET /v1/stats: job counts plus one LabStats
// snapshot (decode counter, characterization cache hits/misses, worker
// utilization) per Lab the daemon has instantiated, ordered by scale,
// per-tenant accounting ordered by tenant id, plus the daemon's
// admission/retention limits.
type Stats struct {
	Jobs    JobCounts         `json:"jobs"`
	Labs    []hotnoc.LabStats `json:"labs"`
	Tenants []TenantStats     `json:"tenants,omitempty"`
	Limits  Limits            `json:"limits,omitzero"`
}

// Diagnostics event types on GET /v1/events, the daemon-wide lifecycle
// stream. Every event carries the owning tenant and is delivered only
// to that tenant's subscribers.
const (
	// DiagJobSubmitted: a sweep was accepted (it may start running
	// immediately or queue).
	DiagJobSubmitted = "job-submitted"
	// DiagJobQueued: admission found no free slot; the job waits for
	// the weighted-fair scheduler.
	DiagJobQueued = "job-queued"
	// DiagJobDispatched: the scheduler moved the job into a run slot.
	DiagJobDispatched = "job-dispatched"
	// DiagJobFinished: the job reached a terminal state (see State).
	DiagJobFinished = "job-finished"
	// DiagTenantThrottled: a submission was refused with 429 (rate or
	// queue bound).
	DiagTenantThrottled = "tenant-throttled"
)

// DiagEvent is one structured lifecycle event on the GET /v1/events SSE
// diagnostics stream. Seq increments per daemon and orders the stream;
// it doubles as the SSE event id, so a reconnecting consumer can resume
// with Last-Event-ID (or ?since=) and skip the replayed prefix.
type DiagEvent struct {
	Seq  int64     `json:"seq"`
	Time time.Time `json:"time"`
	Type string    `json:"type"`
	// Tenant scopes the event to its owner (tenant.AnonymousID for
	// unauthenticated requests); only that tenant's subscribers see it.
	Tenant string `json:"tenant,omitempty"`
	// Job fields, on job-* and tenant-throttled events.
	Job    string `json:"job,omitempty"`
	State  string `json:"state,omitempty"`
	Points int    `json:"points,omitempty"`
	// Reason carries detail: why a tenant was throttled or how a job
	// ended.
	Reason string `json:"reason,omitempty"`
}

// ErrorMsg is the body of every non-2xx response and of EventError
// stream events.
type ErrorMsg struct {
	Error string `json:"error"`
}

func (e ErrorMsg) Err() error { return fmt.Errorf("hotnocd: %s", e.Error) }
