package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hotnoc/server/wire"
)

// defaultEventBuffer is the diagnostics ring capacity when
// Config.EventBuffer is zero: enough replay depth for a dashboard
// reconnecting after a brief outage without letting a chatty daemon's
// history grow unbounded.
const defaultEventBuffer = 512

// diagMsg is one buffered diagnostics event: its payload is marshaled
// once at emit time, so a stream with many subscribers serializes each
// event exactly once (the same economy as the job event log).
type diagMsg struct {
	seq    int64
	tenant string // owning tenant; only it sees the event
	typ    string
	data   []byte
}

// diagLog is the daemon-wide structured diagnostics stream backing
// GET /v1/events: a bounded ring of lifecycle events (job admission and
// completion, dispatches, tenant throttling) with monotonic sequence
// numbers. Subscribers replay the retained suffix — optionally from a
// client-remembered sequence number, enabling SSE Last-Event-ID resume
// — then follow live appends. The ring bounds
// memory: a subscriber slower than the event rate misses events rather
// than wedging the daemon, and can detect the gap from the sequence
// numbers.
type diagLog struct {
	mu     sync.Mutex
	cap    int
	seq    int64
	buf    []diagMsg
	notify chan struct{}
	closed bool
	now    func() time.Time
}

func newDiagLog(capacity int) *diagLog {
	if capacity <= 0 {
		capacity = defaultEventBuffer
	}
	return &diagLog{cap: capacity, notify: make(chan struct{}), now: time.Now}
}

// emit stamps ev with the next sequence number and the current time,
// marshals it once, and appends it to the ring, waking followers.
// Safe to call with any server lock held — diagLog is a leaf that never
// calls out.
func (d *diagLog) emit(ev wire.DiagEvent) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.seq++
	ev.Seq = d.seq
	ev.Time = d.now().UTC()
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	if len(d.buf) >= d.cap {
		// Slide the ring down one slot. O(cap) per emit, and cap is
		// small; lifecycle events are orders of magnitude rarer than
		// outcomes, which have their own per-job logs.
		copy(d.buf, d.buf[1:])
		d.buf = d.buf[:len(d.buf)-1]
	}
	d.buf = append(d.buf, diagMsg{seq: ev.Seq, tenant: ev.Tenant, typ: ev.Type, data: data})
	close(d.notify)
	d.notify = make(chan struct{})
}

// since returns the retained events with sequence numbers beyond seq,
// whether the log is closed, and a channel closed on the next emit.
func (d *diagLog) since(seq int64) (batch []diagMsg, closed bool, more <-chan struct{}) {
	d.mu.Lock()
	defer d.mu.Unlock()
	i := 0
	for i < len(d.buf) && d.buf[i].seq <= seq {
		i++
	}
	return d.buf[i:], d.closed, d.notify
}

// close ends the stream: followers drain what they have and return.
// Called at shutdown before the HTTP server closes connections, so
// /v1/events handlers unwind promptly instead of holding Shutdown open.
func (d *diagLog) close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.closed = true
	close(d.notify)
}

// handleDiagEvents serves GET /v1/events: the daemon-wide diagnostics
// stream as server-sent events. Each frame carries its sequence number
// as the SSE id, so a reconnecting client resumes with Last-Event-ID
// (or the ?since= query parameter) and receives only what it missed —
// within the ring's retention. Events are tenant-scoped: a tenant sees
// its own job lifecycle and throttling; other tenants' events are
// invisible, the same isolation as /v1/jobs.
func (s *Server) handleDiagEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	var cursor int64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		cursor, _ = strconv.ParseInt(v, 10, 64)
	}
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad since %q (want a sequence number)", v)
			return
		}
		cursor = n
	}
	tn := requestTenant(r)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ka := time.NewTicker(s.keepAlive())
	defer ka.Stop()
	for {
		batch, closed, more := s.diag.since(cursor)
		wrote := false
		for _, m := range batch {
			cursor = m.seq
			if m.tenant != tn.ID {
				continue
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", m.seq, m.typ, m.data); err != nil {
				return
			}
			wrote = true
		}
		if wrote {
			flusher.Flush()
		}
		if closed {
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
