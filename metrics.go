package hotnoc

import (
	"strconv"
	"time"

	"hotnoc/obs"
)

// metrics holds the Lab's pre-registered instruments. All fields are
// resolved once at construction so the recording paths are pure atomic
// operations: a *metrics is nil when no registry was configured, and
// every method is nil-receiver safe, which keeps call sites free of
// conditionals. The decode, migration and cache-request counters are not
// stored here: they are registered as views of the Lab's own counters,
// which Lab.Stats reads too (the migration and stepped-cycle counts
// appear on /metrics only).
type metrics struct {
	buildSeconds *obs.Histogram
	charSeconds  *obs.Histogram
	evalSeconds  *obs.Histogram

	points *obs.Counter
}

// newMetrics registers l's pipeline instruments on reg, labeled with
// the Lab's scale so Labs of different scales can share one registry.
// A later Lab of the same scale on the same registry takes over the
// counter views. A nil registry returns nil, which disables recording.
func newMetrics(reg *obs.Registry, l *Lab) *metrics {
	if reg == nil {
		return nil
	}
	s := strconv.Itoa(l.scale)
	stage := func(name string) *obs.Histogram {
		return reg.Histogram("hotnoc_stage_seconds",
			"Pipeline stage latency in seconds; build and characterize observe cold computes only.",
			obs.Labels{"scale": s, "stage": name}, obs.LatencyBuckets())
	}
	m := &metrics{
		buildSeconds: stage("build"),
		charSeconds:  stage("characterize"),
		evalSeconds:  stage("evaluate"),
	}
	cache := func(kind, result string, n func() uint64) {
		reg.CounterFunc("hotnoc_cache_requests_total",
			"Cross-run cache requests by artifact kind and result.",
			obs.Labels{"scale": s, "kind": kind, "result": result}, n)
	}
	cache("characterization", "hit", l.charHits.Load)
	cache("characterization", "miss", l.charMisses.Load)
	cache("build", "hit", l.buildHits.Load)
	cache("build", "miss", l.buildMisses.Load)
	reg.CounterFunc("hotnoc_decodes_total",
		"Engine block decodes performed for NoC characterizations.",
		obs.Labels{"scale": s}, l.decodes.Load)
	reg.CounterFunc("hotnoc_decodes_simulated_total",
		"Engine block decodes simulated on the NoC; the rest of hotnoc_decodes_total replayed a build's decode memo.",
		obs.Labels{"scale": s}, l.simulated.Load)
	reg.CounterFunc("hotnoc_migrations_total",
		"Orbit migrations executed for NoC characterizations.",
		obs.Labels{"scale": s}, l.migrations.Load)
	reg.CounterFunc("hotnoc_migrations_simulated_total",
		"Orbit migrations stepped on the NoC; the rest of hotnoc_migrations_total replayed a build's migration memo.",
		obs.Labels{"scale": s}, l.migrationsSimulated.Load)
	reg.CounterFunc("hotnoc_noc_cycles_stepped_total",
		"NoC cycles stepped for characterizations; fast-forwarded idle cycles and cycles replayed from a recorded window are not counted.",
		obs.Labels{"scale": s}, l.steppedCycles.Load)
	m.points = reg.Counter("hotnoc_points_evaluated_total",
		"Grid points evaluated by the thermal stage.",
		obs.Labels{"scale": s})
	return m
}

// coldBuild observes one cold build's latency. Hits are not observed: a
// disk-or-memory load says nothing about the annealing cost the
// histogram tracks.
func (m *metrics) coldBuild(d time.Duration) {
	if m == nil {
		return
	}
	m.buildSeconds.Observe(d.Seconds())
}

// coldCharacterization observes one simulated orbit's latency.
func (m *metrics) coldCharacterization(d time.Duration) {
	if m == nil {
		return
	}
	m.charSeconds.Observe(d.Seconds())
}

// evaluateDone records one thermal evaluation. This runs once per grid
// point on the hot path; it is allocation-free.
//
//hotnoc:noalloc
func (m *metrics) evaluateDone(d time.Duration) {
	if m == nil {
		return
	}
	m.points.Inc()
	m.evalSeconds.Observe(d.Seconds())
}
