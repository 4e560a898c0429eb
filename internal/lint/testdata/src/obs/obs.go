// Package obs is a fixture stub of hotnoc/obs: just enough surface for
// the lockorder fixtures to register gauge and counter callbacks.
// The analyzer matches the package by name, so the stub exercises the
// same code paths as the real registry.
package obs

// Registry is the stub instrument registry.
type Registry struct{}

// GaugeFunc registers a gauge evaluated at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels map[string]string, fn func() float64) {}

// CounterFunc registers a counter evaluated at scrape time.
func (r *Registry) CounterFunc(name, help string, labels map[string]string, fn func() uint64) {}
