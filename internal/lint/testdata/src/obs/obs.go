// Package obs is a fixture stub of hotnoc/obs: just enough surface for
// the lockorder fixtures to register collectors and gauge and counter
// callbacks.
// The analyzer matches the package by name, so the stub exercises the
// same code paths as the real registry.
package obs

// Sample is one emitted metric sample.
type Sample struct {
	Name  string
	Value float64
}

// Collector contributes samples at scrape time.
type Collector func(emit func(Sample))

// Registry is the stub instrument registry.
type Registry struct{}

// Collect registers a scrape-time collector.
func (r *Registry) Collect(c Collector) {}

// GaugeFunc registers a gauge evaluated at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels map[string]string, fn func() float64) {}

// CounterFunc registers a counter evaluated at scrape time.
func (r *Registry) CounterFunc(name, help string, labels map[string]string, fn func() uint64) {}
