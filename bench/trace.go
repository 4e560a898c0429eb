package main

import (
	"cmp"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"hotnoc"
)

// span is one traced interval: a call the benchmark made into a layer of
// the program, or a pipeline stage reconstructed from the program's
// progress events. Times are milliseconds since the run started; the
// layer is the name's first dotted word ("chipcfg.build A" is chipcfg).
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Start  float64          `json:"start_ms"`
	End    float64          `json:"end_ms"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps a run's spans in memory until the run ends. A nil *tracer
// records nothing, which is how untraced runs skip every span.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// open holds the start times of event-derived spans awaiting their
	// end event, keyed by stage and point.
	open map[string]time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: map[string]time.Time{}} }

func (t *tracer) ms(at time.Time) float64 { return ms(at.Sub(t.t0)) }

// begin opens a span under parent (0 for a top-level span) and returns its
// id.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.ms(now), End: t.ms(now)})
	return id
}

// end closes span id, attaching counts of the work it did.
func (t *tracer) end(id int, counts map[string]int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.ms(now)
	t.spans[id-1].Counts = counts
}

// add records an interval measured elsewhere.
func (t *tracer) add(parent int, name string, start, end time.Time, counts map[string]int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: t.ms(start), End: t.ms(end), Counts: counts})
}

// durations returns the durations of every span whose name starts with
// prefix.
func (t *tracer) durations(prefix string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// onEvent returns a progress callback that turns the program's build and
// cold-characterization events into chipcfg.build and sim.characterize
// spans, parented under whatever span parent names when the event lands.
// Cache hits have no start event and make no span.
func (t *tracer) onEvent(parent func() int) func(hotnoc.Event) {
	return func(ev hotnoc.Event) {
		now := time.Now()
		var key, name string
		start := false
		switch ev.Stage {
		case hotnoc.StageBuildStart, hotnoc.StageBuildDone:
			key, name = "build "+ev.Config, "chipcfg.build "+ev.Config
			start = ev.Stage == hotnoc.StageBuildStart
		case hotnoc.StageCharacterizeStart, hotnoc.StageCharacterizeDone:
			key = "characterize " + ev.Config + "/" + ev.Scheme
			name = "sim." + key
			start = ev.Stage == hotnoc.StageCharacterizeStart
		default:
			return
		}
		t.mu.Lock()
		began, ok := t.open[key]
		if start {
			t.open[key] = now
		} else {
			delete(t.open, key)
		}
		t.mu.Unlock()
		if !start && ok {
			t.add(parent(), name, began, now, nil)
		}
	}
}

// layerOf names the layer a span belongs to.
func layerOf(name string) string {
	name, _, _ = strings.Cut(name, " ")
	name, _, _ = strings.Cut(name, ".")
	return name
}

// selfTimes returns each layer's self time in milliseconds: the summed
// duration of its spans minus the part of each span that its child spans
// cover. Overlapping children (concurrent workers) count once.
func selfTimes(spans []span) map[string]float64 {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[layerOf(s.Name)] += s.End - s.Start - covered(s, kids[s.ID])
	}
	return out
}

// covered measures the union of the children's intervals within parent.
func covered(parent span, kids []span) float64 {
	type iv struct{ lo, hi float64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	total, reach := 0.0, parent.Start
	for _, v := range ivs {
		if v.hi <= reach {
			continue
		}
		total += v.hi - max(v.lo, reach)
		reach = v.hi
	}
	return total
}

// spanKey carries the job span id into the requests a job makes.
type spanKey struct{}

// wireCounter is the traced run's HTTP transport to the daemon. It times
// every sweep submission and event stream of the timed loop, from request
// to the body's close, counts the bytes they move, and records each as a
// client span under the job that made it.
type wireCounter struct {
	base http.RoundTripper
	tr   *tracer

	mu     sync.Mutex
	bytes  int64
	submit []time.Duration
	stream []time.Duration
}

func (w *wireCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := w.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	var name string
	var into *[]time.Duration
	switch {
	case req.Method == http.MethodPost && req.URL.Path == "/v1/sweeps":
		name, into = "client.submit", &w.submit
	case strings.HasSuffix(req.URL.Path, "/events"):
		name, into = "client.stream", &w.stream
	default:
		return resp, nil
	}
	parent, _ := req.Context().Value(spanKey{}).(int)
	sent := max(req.ContentLength, 0)
	resp.Body = &countedBody{ReadCloser: resp.Body, done: func(read int64) {
		end := time.Now()
		w.mu.Lock()
		w.bytes += sent + read
		*into = append(*into, end.Sub(start))
		w.mu.Unlock()
		w.tr.add(parent, name, start, end, map[string]int64{"bytes": sent + read})
	}}
	return resp, nil
}

// countedBody counts the bytes read from a response body and reports
// them once, on close.
type countedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(read int64)
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}
