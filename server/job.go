package server

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"time"

	"hotnoc"
	"hotnoc/server/wire"
)

// message is one SSE frame of a job's event log: the event name plus its
// JSON payload. Lifecycle and progress payloads are small and encoded
// once, at append time. An outcome is kept as its wire value instead
// and encoded each time it is sent: a finished job retains all of its
// outcomes for late subscribers, and the value is about half the size of
// its JSON. Encoding is deterministic, so every subscriber receives the
// same bytes.
type message struct {
	event   string
	data    []byte
	outcome *wire.OutcomeMsg // set on outcome events instead of data
}

// A job's small payloads share chunks of its arena: the first is
// minArenaChunk bytes, each next one twice the last, up to maxArenaChunk.
const (
	minArenaChunk = 512
	maxArenaChunk = 4 << 10
)

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

	mu   sync.Mutex
	msgs []message
	// notify is closed on the next append; watched records that a
	// subscriber took it since it was made, so appends nobody waits on
	// keep it instead of replacing it.
	notify  chan struct{}
	watched bool
	// enc encodes small payloads into encBuf, and arena holds their
	// bytes: the payloads are immutable once logged, so they share
	// chunks instead of taking an allocation each.
	enc    *json.Encoder
	encBuf bytes.Buffer
	arena  []byte
	// progress holds the event being encoded, so passing it to enc
	// boxes nothing.
	progress wire.EventMsg
	state    string
	done     int
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
	j.enc = json.NewEncoder(&j.encBuf)
	j.appendLocked(wire.EventState, wire.StateMsg{State: wire.JobQueued, Tenant: tenant})
	return j
}

// start marks the job dispatched: state becomes running and the
// transition joins the event log.
func (j *job) start() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = wire.JobRunning
	j.startedAt = time.Now()
	j.appendLocked(wire.EventState, wire.StateMsg{State: wire.JobRunning, Tenant: j.tenant})
}

// setStage records the pipeline stage the job just entered. Cheaper
// than an append — no event, no subscriber wakeup — because stage
// changes are polled via job introspection, not streamed.
func (j *job) setStage(stage string) {
	j.mu.Lock()
	j.stage = stage
	j.mu.Unlock()
}

// appendProgress adds one pipeline progress event to the event log,
// waking subscribers.
func (j *job) appendProgress(ev hotnoc.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.progress = wire.FromEvent(ev)
	j.appendLocked(wire.EventProgress, &j.progress)
}

// appendOutcome adds one outcome to the event log, waking subscribers.
// The log keeps the value; subscribers marshal it as they send it.
func (j *job) appendOutcome(o wire.OutcomeMsg) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendMsgLocked(message{event: wire.EventOutcome, outcome: &o})
}

// appendLocked encodes v and adds it to the event log, waking
// subscribers. Wire payloads are plain data; an encoding failure is a
// programming error, but dropping the event beats wedging the job, so
// appendLocked reports it and logs nothing.
func (j *job) appendLocked(event string, v any) bool {
	j.encBuf.Reset()
	if err := j.enc.Encode(v); err != nil {
		return false
	}
	// Encode ends the payload with a newline json.Marshal does not write.
	j.appendDataLocked(event, bytes.TrimSuffix(j.encBuf.Bytes(), []byte("\n")))
	return true
}

// appendDataLocked adds a copy of the payload data to the event log,
// waking subscribers.
func (j *job) appendDataLocked(event string, data []byte) {
	if cap(j.arena)-len(j.arena) < len(data) {
		size := min(max(2*cap(j.arena), minArenaChunk), maxArenaChunk)
		j.arena = make([]byte, 0, max(size, len(data)))
	}
	n := len(j.arena)
	j.arena = append(j.arena, data...)
	j.appendMsgLocked(message{event: event, data: j.arena[n:len(j.arena):len(j.arena)]})
}

func (j *job) appendMsgLocked(m message) {
	j.msgs = append(j.msgs, m)
	if m.event == wire.EventOutcome {
		j.done++
	}
	if j.watched {
		close(j.notify)
		j.notify = make(chan struct{})
		j.watched = false
	}
}

// finish marks the job done and appends the terminal done event. State
// and terminal event change under one lock acquisition, so a subscriber
// can never observe a terminal state with the terminal event still
// missing from the log (it would close its stream early).
func (j *job) finish() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = wire.JobDone
	j.finishedAt = time.Now()
	j.appendDataLocked(wire.EventDone, []byte("{}"))
}

// fail marks the job failed or canceled and appends the terminal error
// event, atomically like finish.
func (j *job) fail(state string, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	j.errMsg = err.Error()
	j.finishedAt = time.Now()
	if !j.appendLocked(wire.EventError, wire.ErrorMsg{Error: j.errMsg}) {
		j.appendDataLocked(wire.EventError, []byte(`{"error":"internal error"}`))
	}
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
	j.watched = true
	return batch, complete, j.notify
}
