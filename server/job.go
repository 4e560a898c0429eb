package server

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"hotnoc/server/wire"
)

// message is one SSE frame of a job's event log: the event name plus its
// JSON payload. Lifecycle and progress payloads are small and marshaled
// once, at append time. An outcome is kept as its wire value instead
// and marshaled each time it is sent: a finished job retains all of its
// outcomes for late subscribers, and the value is about half the size of
// its JSON. Marshaling is deterministic, so every subscriber receives
// the same bytes.
type message struct {
	event   string
	data    []byte
	outcome *wire.OutcomeMsg // set on outcome events instead of data
}

// payload returns the frame's JSON payload.
func (m message) payload() ([]byte, error) {
	if m.outcome != nil {
		return json.Marshal(m.outcome)
	}
	return m.data, nil
}

// job is one sweep accepted by the daemon. A job is admitted in the
// queued state and dispatched by the weighted-fair scheduler; from
// dispatch, the sweep runs in its own goroutine. Every event it
// produces is appended to an in-memory log, and each SSE subscriber
// replays the log from the start before following live appends — so a
// client that connects (or reconnects) late still sees every outcome,
// in point order. Lifecycle transitions (queued, running) are
// themselves log events, attributed to the job's tenant.
type job struct {
	id     string
	tenant string
	scale  int
	points int
	// seq is the daemon-wide admission order, the scheduler's FIFO and
	// queue-position key.
	seq       int
	createdAt time.Time
	// ctx carries the job's cancellation from admission through dispatch;
	// cancel fires it, whether the job is still queued or already running.
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	msgs   []message
	notify chan struct{}
	state  string
	done   int
	// stage is the pipeline stage the job most recently entered (build,
	// characterize, evaluate) — live introspection for GET /v1/jobs/{id},
	// meaningful only while running.
	stage      string
	errMsg     string
	startedAt  time.Time
	finishedAt time.Time
}

func newJob(ctx context.Context, id, tenant string, scale, points, seq int, cancel context.CancelFunc) *job {
	j := &job{
		id:        id,
		tenant:    tenant,
		scale:     scale,
		points:    points,
		seq:       seq,
		createdAt: time.Now(),
		ctx:       ctx,
		cancel:    cancel,
		notify:    make(chan struct{}),
		state:     wire.JobQueued,
	}
	j.append(wire.EventState, wire.StateMsg{State: wire.JobQueued, Tenant: tenant})
	return j
}

// start marks the job dispatched: state becomes running and the
// transition joins the event log.
func (j *job) start() {
	data, _ := json.Marshal(wire.StateMsg{State: wire.JobRunning, Tenant: j.tenant})
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = wire.JobRunning
	j.startedAt = time.Now()
	j.appendLocked(wire.EventState, data)
}

// setStage records the pipeline stage the job just entered. Cheaper
// than an append — no event, no subscriber wakeup — because stage
// changes are polled via job introspection, not streamed.
func (j *job) setStage(stage string) {
	j.mu.Lock()
	j.stage = stage
	j.mu.Unlock()
}

// append marshals v and adds it to the event log, waking subscribers.
func (j *job) append(event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		// Wire payloads are plain data; a marshal failure is a
		// programming error, but dropping the event beats wedging the job.
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendLocked(event, data)
}

// appendOutcome adds one outcome to the event log, waking subscribers.
// The log keeps the value; subscribers marshal it as they send it.
func (j *job) appendOutcome(o wire.OutcomeMsg) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendMsgLocked(message{event: wire.EventOutcome, outcome: &o})
}

func (j *job) appendLocked(event string, data []byte) {
	j.appendMsgLocked(message{event: event, data: data})
}

func (j *job) appendMsgLocked(m message) {
	j.msgs = append(j.msgs, m)
	if m.event == wire.EventOutcome {
		j.done++
	}
	close(j.notify)
	j.notify = make(chan struct{})
}

// finish marks the job done and appends the terminal done event. State
// and terminal event change under one lock acquisition, so a subscriber
// can never observe a terminal state with the terminal event still
// missing from the log (it would close its stream early).
func (j *job) finish() {
	data, _ := json.Marshal(struct{}{})
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = wire.JobDone
	j.finishedAt = time.Now()
	j.appendLocked(wire.EventDone, data)
}

// fail marks the job failed or canceled and appends the terminal error
// event, atomically like finish.
func (j *job) fail(state string, err error) {
	data, merr := json.Marshal(wire.ErrorMsg{Error: err.Error()})
	if merr != nil {
		data = []byte(`{"error":"internal error"}`)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	j.errMsg = err.Error()
	j.finishedAt = time.Now()
	j.appendLocked(wire.EventError, data)
}

// terminalState reports whether state is one a job never leaves.
func terminalState(state string) bool {
	return state != wire.JobQueued && state != wire.JobRunning
}

// terminal reports whether the job reached a terminal state.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return terminalState(j.state)
}

// stateNow returns the job's current state.
func (j *job) stateNow() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// doneNow returns how many outcomes the job has streamed.
func (j *job) doneNow() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done
}

// errNow returns the job's terminal error message, empty while live or
// on success.
func (j *job) errNow() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errMsg
}

// terminalAt returns when the job reached a terminal state, and false
// while it is still queued or running. Retention measures a finished
// job's age from this instant, not from creation.
func (j *job) terminalAt() (time.Time, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finishedAt, terminalState(j.state)
}

// snapshot returns the job's wire description. Queue position and ETA
// are the server's knowledge, filled by Server.jobInfo.
func (j *job) snapshot() wire.JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := wire.JobInfo{
		ID:         j.id,
		State:      j.state,
		Tenant:     j.tenant,
		Scale:      j.scale,
		Points:     j.points,
		Done:       j.done,
		CreatedAt:  j.createdAt,
		StartedAt:  j.startedAt,
		FinishedAt: j.finishedAt,
		Error:      j.errMsg,
	}
	if j.state == wire.JobRunning {
		info.Stage = j.stage
	}
	return info
}

// next returns the log suffix starting at i, whether the log is complete
// (terminal state reached), and a channel closed on the next append.
func (j *job) next(i int) (batch []message, complete bool, more <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	batch = j.msgs[i:]
	complete = terminalState(j.state) && i+len(batch) == len(j.msgs)
	return batch, complete, j.notify
}
