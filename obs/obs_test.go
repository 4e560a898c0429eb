package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the inclusive-upper-bound
// semantics: a value equal to a bound lands in that bucket, anything
// above the last bound lands in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2.5, 10})
	for _, v := range []float64{0.5, 1, 1.0000001, 2.5, 10, 11, math.Inf(1)} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 2, 1, 2} // (..1], (1..2.5], (2.5..10], (10..+Inf)
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d: got %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Errorf("count = %d, want 7", s.Count)
	}
	if !math.IsInf(s.Sum, 1) {
		t.Errorf("sum = %v, want +Inf (an Inf observation was recorded)", s.Sum)
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"empty":      {},
		"descending": {2, 1},
		"duplicate":  {1, 1},
		"inf":        {1, math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bounds %v: expected panic", name, bounds)
				}
			}()
			newHistogram(bounds)
		}()
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

// TestConcurrentRecording hammers one counter, gauge, and histogram
// from many goroutines; run under -race this is the data-race guard,
// and the final totals prove no increment was lost.
func TestConcurrentRecording(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "", nil)
	g := reg.Gauge("g", "", nil)
	h := reg.Histogram("h_seconds", "", nil, []float64{0.25, 0.5, 1})

	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%4) * 0.25)
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per {
		t.Errorf("gauge = %v, want %d", got, workers*per)
	}
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Errorf("histogram count = %d, want %d", s.Count, workers*per)
	}
	wantSum := float64(workers) * per / 4 * (0 + 0.25 + 0.5 + 0.75)
	if math.Abs(s.Sum-wantSum) > 1e-6 {
		t.Errorf("histogram sum = %v, want %v", s.Sum, wantSum)
	}
}

// TestRegistryIdempotent proves the same (name, labels) returns the
// same instrument, so subsystems can register independently.
func TestRegistryIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "help", Labels{"scale": "8"})
	b := reg.Counter("x_total", "help", Labels{"scale": "8"})
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	other := reg.Counter("x_total", "help", Labels{"scale": "16"})
	if a == other {
		t.Fatal("different labels returned the same counter")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering one name with two types")
		}
	}()
	reg.Gauge("x_total", "", nil)
}

// TestCounterFunc: a counter view renders and gathers whatever its
// callback reads, a second registration of the series replaces the
// callback, and CounterValue reads stored counters and views alike
// without creating the series it is asked about.
func TestCounterFunc(t *testing.T) {
	reg := NewRegistry()
	var n atomic.Uint64
	n.Store(5)
	reg.CounterFunc("decodes_total", "Decodes.", Labels{"scale": "8"}, n.Load)
	reg.Counter("jobs_total", "Jobs.", Labels{"state": "done"}).Add(2)
	n.Add(1)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP decodes_total Decodes.
# TYPE decodes_total counter
decodes_total{scale="8"} 6
# HELP jobs_total Jobs.
# TYPE jobs_total counter
jobs_total{state="done"} 2
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if s := reg.Gather(); len(s) != 2 || s[0].Value != 6 || s[0].Type != TypeCounter {
		t.Errorf("gathered %+v, want the view's 6 first", s)
	}

	if v := reg.CounterValue("decodes_total", Labels{"scale": "8"}); v != 6 {
		t.Errorf("CounterValue of the view = %d, want 6", v)
	}
	if v := reg.CounterValue("jobs_total", Labels{"state": "done"}); v != 2 {
		t.Errorf("CounterValue of the stored counter = %d, want 2", v)
	}
	if v := reg.CounterValue("jobs_total", Labels{"state": "failed"}); v != 0 {
		t.Errorf("CounterValue of an unregistered series = %d, want 0", v)
	}
	if v := reg.CounterValue("missing_total", nil); v != 0 {
		t.Errorf("CounterValue of an unregistered family = %d, want 0", v)
	}
	if s := reg.Gather(); len(s) != 2 {
		t.Errorf("CounterValue created series: gathered %+v", s)
	}

	reg.CounterFunc("decodes_total", "Decodes.", Labels{"scale": "8"}, func() uint64 { return 1 })
	if v := reg.CounterValue("decodes_total", Labels{"scale": "8"}); v != 1 {
		t.Errorf("after re-registration the view reads %d, want the new callback's 1", v)
	}
}

// TestPrometheusText is the golden test for the exposition format:
// HELP/TYPE grouping, sorted series, cumulative buckets, label
// escaping, integral-value rendering.
func TestPrometheusText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("jobs_total", "Jobs by tenant.", Labels{"tenant": "b"}).Add(3)
	reg.Counter("jobs_total", "Jobs by tenant.", Labels{"tenant": `a"quote\slash`}).Add(1)
	reg.Gauge("depth", "Queue depth.", nil).Set(2.5)
	h := reg.Histogram("wait_seconds", "Queue wait.", nil, []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(30)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP jobs_total Jobs by tenant.
# TYPE jobs_total counter
jobs_total{tenant="a\"quote\\slash"} 1
jobs_total{tenant="b"} 3
# HELP depth Queue depth.
# TYPE depth gauge
depth 2.5
# HELP wait_seconds Queue wait.
# TYPE wait_seconds histogram
wait_seconds_bucket{le="0.1"} 2
wait_seconds_bucket{le="1"} 3
wait_seconds_bucket{le="+Inf"} 4
wait_seconds_sum 30.6
wait_seconds_count 4
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRecordingAllocationFree is the observability arm of the hot-loop
// allocation guard: recording into any instrument must not allocate,
// or per-point metrics would pollute the evaluate path the banded
// kernels keep allocation-free.
func TestRecordingAllocationFree(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "", nil)
	g := reg.Gauge("g", "", nil)
	h := reg.Histogram("h_seconds", "", nil, LatencyBuckets())

	for name, fn := range map[string]func(){
		"Counter.Inc":       func() { c.Inc() },
		"Gauge.Set":         func() { g.Set(3) },
		"Gauge.Add":         func() { g.Add(1) },
		"Histogram.Observe": func() { h.Observe(0.004) },
	} {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

// TestBatcherFlushesToSinks covers the pluggable-sink loop: periodic
// flushes reach every sink, Close performs a final flush, and the
// LogSink line round-trips as JSON.
func TestBatcherFlushesToSinks(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("n_total", "", nil).Add(5)

	var buf safeBuffer
	log := NewLogSink(&buf)
	probe := &probeSink{}
	b := NewBatcher(reg, 5*time.Millisecond, log, probe)

	deadline := time.Now().Add(2 * time.Second)
	for probe.flushes() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if probe.flushes() == 0 {
		t.Fatal("batcher never flushed")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if !probe.closed() {
		t.Fatal("Close did not close sinks")
	}
	if err := b.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	line, _, ok := strings.Cut(buf.String(), "\n")
	if !ok {
		t.Fatalf("no complete log line in %q", buf.String())
	}
	var batch struct {
		TS      string   `json:"ts"`
		Samples []Sample `json:"samples"`
	}
	if err := json.Unmarshal([]byte(line), &batch); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, line)
	}
	if batch.TS == "" || len(batch.Samples) == 0 {
		t.Fatalf("log batch incomplete: %+v", batch)
	}
	if batch.Samples[0].Name != "n_total" || batch.Samples[0].Value != 5 {
		t.Fatalf("unexpected sample: %+v", batch.Samples[0])
	}
}

type probeSink struct {
	mu      sync.Mutex
	nflush  int
	nclosed bool
}

func (p *probeSink) Flush(samples []Sample) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nflush++
	return nil
}

func (p *probeSink) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nclosed = true
	return nil
}

func (p *probeSink) flushes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nflush
}

func (p *probeSink) closed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nclosed
}

type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *safeBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram(LatencyBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.004)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
