// Package obs is hotnoc's dependency-free metrics core: counters,
// gauges, and fixed-bucket histograms whose recording paths are single
// atomic operations (zero allocations, safe from any goroutine), plus a
// Registry that owns instrument identity and renders Prometheus text.
//
// Instruments are registered once by (name, label set) and looked up
// idempotently, so independent subsystems can share a registry without
// coordinating: asking for an existing series returns the existing
// instrument.
//
// The package deliberately has no dependencies beyond the standard
// library; the server, the simulation pipeline, and the CLIs all report
// into it without pulling HTTP or encoding concerns into the hot path.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is an immutable-by-convention label set attached to an
// instrument at registration time. Callers must not mutate a Labels map
// after passing it to a Registry.
type Labels map[string]string

// MetricType discriminates how a family is rendered and how sinks
// should interpret its samples.
type MetricType string

const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Counter is a monotonically increasing value. The zero value is ready
// to use; all methods are safe for concurrent use and allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//hotnoc:noalloc
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Counters only go up; negative deltas are a programming
// error and there is no API for them.
//
//hotnoc:noalloc
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down, stored as float64 bits.
// The zero value is ready to use; all methods are safe for concurrent
// use and allocation-free.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
//
//hotnoc:noalloc
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (which may be negative) with a CAS
// loop, so concurrent adjustments never lose updates.
//
//hotnoc:noalloc
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Buckets are defined
// by their inclusive upper bounds; an implicit +Inf bucket catches the
// rest. Observe is a short linear scan plus three atomics — no locks,
// no allocations — which keeps it safe on the per-point evaluate path.
type Histogram struct {
	bounds  []float64 // sorted, strictly increasing upper bounds
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// newHistogram validates and copies bounds. The +Inf bucket is implicit
// and must not be listed.
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	for i, v := range b {
		if math.IsInf(v, +1) {
			panic("obs: +Inf bucket is implicit; do not list it")
		}
		if i > 0 && v <= b[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
//
//hotnoc:noalloc
func (h *Histogram) Observe(v float64) {
	idx := len(h.bounds)
	for i, b := range h.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	h.counts[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a consistent-enough point-in-time read of a
// histogram: per-bucket counts are read individually, so a snapshot
// taken under concurrent recording may be mid-update, but every count
// it contains was true at some instant.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds, +Inf implicit
	Counts []uint64  // len(Bounds)+1, non-cumulative
	Sum    float64
	Count  uint64
}

// Snapshot reads the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// ExpBuckets returns n upper bounds starting at start, each factor
// times the previous — the usual shape for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// LatencyBuckets spans 100µs to ~5 minutes: wide enough for both the
// microsecond-scale evaluate stage and minute-scale annealing builds.
func LatencyBuckets() []float64 {
	return []float64{1e-4, 1e-3, 1e-2, 0.1, 0.25, 1, 5, 15, 60, 300}
}

// Sample is one data point exported to a Sink. Histogram instruments
// expand into one Sample per series (_bucket, _sum, _count) when
// gathered for sinks.
type Sample struct {
	Name   string     `json:"name"`
	Type   MetricType `json:"type"`
	Help   string     `json:"help,omitempty"`
	Labels Labels     `json:"labels,omitempty"`
	Value  float64    `json:"value"`
}

// instrument is one registered series.
type instrument struct {
	labels    Labels
	labelKey  string
	counter   *Counter
	counterFn func() uint64
	gauge     *Gauge
	gaugeFn   func() float64
	hist      *Histogram
}

// counterValue reads a counter series, whether stored or a view.
func (inst *instrument) counterValue() uint64 {
	if inst.counterFn != nil {
		return inst.counterFn()
	}
	return inst.counter.Value()
}

// family groups the series sharing one metric name.
type family struct {
	name   string
	help   string
	mtype  MetricType
	bounds []float64 // histogram families only
	series []*instrument
	byKey  map[string]*instrument
}

// Registry owns instrument identity and rendering. The zero value is
// not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey canonicalizes a label set for identity comparison.
func labelKey(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
		b.WriteByte(',')
	}
	return b.String()
}

// lookup finds or creates the (family, series) slot for name+labels,
// enforcing that a name keeps one type and one help string.
func (r *Registry) lookup(name, help string, mtype MetricType, labels Labels) *instrument {
	if name == "" {
		panic("obs: empty metric name")
	}
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, mtype: mtype, byKey: make(map[string]*instrument)}
		r.families[name] = fam
		r.order = append(r.order, name)
	} else if fam.mtype != mtype {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, fam.mtype, mtype))
	}
	key := labelKey(labels)
	inst, ok := fam.byKey[key]
	if !ok {
		inst = &instrument{labels: labels, labelKey: key}
		fam.byKey[key] = inst
		fam.series = append(fam.series, inst)
		sort.Slice(fam.series, func(i, j int) bool { return fam.series[i].labelKey < fam.series[j].labelKey })
	}
	return inst
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	inst := r.lookup(name, help, TypeCounter, labels)
	if inst.counter == nil && inst.counterFn == nil {
		inst.counter = &Counter{}
	}
	return inst.counter
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time: a view of a count its owner already keeps, so the count
// has one store. fn runs under the registry lock, so it must not call
// back into the registry; it must be safe to call from any goroutine and
// never decrease. Registering the same series again replaces fn.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookup(name, help, TypeCounter, labels).counterFn = fn
}

// CounterValue returns the value of the counter series name+labels, or
// zero when it is not registered. It never creates a series, so a read
// leaves the exposition unchanged.
func (r *Registry) CounterValue(name string, labels Labels) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok || fam.mtype != TypeCounter {
		return 0
	}
	inst, ok := fam.byKey[labelKey(labels)]
	if !ok {
		return 0
	}
	return inst.counterValue()
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	inst := r.lookup(name, help, TypeGauge, labels)
	if inst.gauge == nil && inst.gaugeFn == nil {
		inst.gauge = &Gauge{}
	}
	return inst.gauge
}

// GaugeFunc registers a gauge series whose value is read from fn at
// scrape time. fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	inst := r.lookup(name, help, TypeGauge, labels)
	inst.gaugeFn = fn
}

// Histogram registers (or returns the existing) histogram series. Every
// series of one name shares the family's bucket bounds: the first
// registration fixes them and later calls may pass nil to reuse them.
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	inst := r.lookup(name, help, TypeHistogram, labels)
	fam := r.families[name]
	if fam.bounds == nil {
		if bounds == nil {
			bounds = LatencyBuckets()
		}
		fam.bounds = bounds
	}
	if inst.hist == nil {
		inst.hist = newHistogram(fam.bounds)
	}
	return inst.hist
}

// Gather flattens every instrument into sink samples.
// Histograms expand into per-bucket samples with an "le" label plus
// _sum and _count, mirroring the Prometheus exposition shape so a sink
// line can be joined against a scrape.
func (r *Registry) Gather() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Sample
	for _, name := range r.order {
		fam := r.families[name]
		for _, inst := range fam.series {
			switch fam.mtype {
			case TypeCounter:
				out = append(out, Sample{Name: name, Type: TypeCounter, Help: fam.help, Labels: inst.labels, Value: float64(inst.counterValue())})
			case TypeGauge:
				v := 0.0
				if inst.gaugeFn != nil {
					v = inst.gaugeFn()
				} else if inst.gauge != nil {
					v = inst.gauge.Value()
				}
				out = append(out, Sample{Name: name, Type: TypeGauge, Help: fam.help, Labels: inst.labels, Value: v})
			case TypeHistogram:
				s := inst.hist.Snapshot()
				cum := uint64(0)
				for i, c := range s.Counts {
					cum += c
					le := "+Inf"
					if i < len(s.Bounds) {
						le = formatFloat(s.Bounds[i])
					}
					out = append(out, Sample{Name: name + "_bucket", Type: TypeHistogram, Help: fam.help, Labels: withLabel(inst.labels, "le", le), Value: float64(cum)})
				}
				out = append(out, Sample{Name: name + "_sum", Type: TypeHistogram, Help: fam.help, Labels: inst.labels, Value: s.Sum})
				out = append(out, Sample{Name: name + "_count", Type: TypeHistogram, Help: fam.help, Labels: inst.labels, Value: float64(s.Count)})
			}
		}
	}
	return out
}

// withLabel copies labels plus one extra pair.
func withLabel(labels Labels, k, v string) Labels {
	out := make(Labels, len(labels)+1)
	for lk, lv := range labels {
		out[lk] = lv
	}
	out[k] = v
	return out
}
