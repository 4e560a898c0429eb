package fleet

import (
	"context"
	"maps"
	"slices"
	"sync"

	"hotnoc"
	"hotnoc/obs"
)

// statsLedger makes the fleet's aggregated lab counters monotonic
// across worker restarts. A worker that loses its lease and re-registers
// (or crashes and comes back) reports counters that restarted from zero;
// a naive sum over live workers would make the fleet totals go *down*,
// which breaks anything rate()-ing them. The ledger keys on worker URL
// — the stable identity across re-registration, since coordinator ids
// change on every rejoin — and keeps, per URL and scale, an accumulated
// base from previous incarnations plus the latest snapshot of the
// current one. When a snapshot's counters regress, or a scale it
// reported before is missing (a daemon never drops a Lab), the previous
// snapshot is folded into the base (the old incarnation's final
// contribution) and the new snapshot starts the next incarnation.
// Totals are Σ(base + last) over every URL ever observed, so a departed
// worker's work stays counted.
//
// Only counter-class fields live here. Gauges (pool sizes, busy
// workers) describe the present and must come from the workers
// currently reachable, not from history.
type statsLedger struct {
	mu    sync.Mutex
	byURL map[string]*urlLedger
}

// labCounters is the counter-class slice of hotnoc.LabStats.
type labCounters struct {
	decodes     uint64
	cacheHits   uint64
	cacheMisses uint64
	buildHits   uint64
	buildMisses uint64
}

func (a labCounters) add(b labCounters) labCounters {
	a.decodes += b.decodes
	a.cacheHits += b.cacheHits
	a.cacheMisses += b.cacheMisses
	a.buildHits += b.buildHits
	a.buildMisses += b.buildMisses
	return a
}

// regressed reports whether cur lost ground against prev — the restart
// signature (every field is monotonic within one worker process).
func (cur labCounters) regressed(prev labCounters) bool {
	return cur.decodes < prev.decodes ||
		cur.cacheHits < prev.cacheHits || cur.cacheMisses < prev.cacheMisses ||
		cur.buildHits < prev.buildHits || cur.buildMisses < prev.buildMisses
}

func labCountersOf(ls hotnoc.LabStats) labCounters {
	return labCounters{
		decodes:     ls.Decodes,
		cacheHits:   ls.CacheHits,
		cacheMisses: ls.CacheMisses,
		buildHits:   ls.BuildHits,
		buildMisses: ls.BuildMisses,
	}
}

// urlLedger is one worker URL's accumulation state, by scale.
type urlLedger struct {
	base map[int]labCounters // accumulated from dead incarnations
	last map[int]labCounters // latest snapshot of the live incarnation
}

// total returns the URL's counters at one scale, summed over its
// incarnations.
func (ul *urlLedger) total(scale int) labCounters {
	return ul.base[scale].add(ul.last[scale])
}

// scales returns every scale the URL ever reported, sorted.
//
//hotnoc:deterministic
func (ul *urlLedger) scales() []int {
	var out []int
	for scale := range ul.base {
		out = append(out, scale)
	}
	for scale := range ul.last {
		out = append(out, scale)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func newStatsLedger() *statsLedger {
	return &statsLedger{byURL: map[string]*urlLedger{}}
}

// observe folds one successfully fetched worker's lab stats into the
// ledger. Restart detection is per scale: a regression in any counter,
// or a scale gone missing, means the worker restarted since the
// previous snapshot, so the previous snapshot — the old incarnation's
// final observed state — is banked into the base.
func (l *statsLedger) observe(url string, labs []hotnoc.LabStats) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ul, ok := l.byURL[url]
	if !ok {
		ul = &urlLedger{base: map[int]labCounters{}, last: map[int]labCounters{}}
		l.byURL[url] = ul
	}
	reported := map[int]bool{}
	for _, ls := range labs {
		reported[ls.Scale] = true
		cur := labCountersOf(ls)
		if prev, seen := ul.last[ls.Scale]; seen && cur.regressed(prev) {
			ul.base[ls.Scale] = ul.base[ls.Scale].add(prev)
		}
		ul.last[ls.Scale] = cur
	}
	for scale, prev := range ul.last {
		if !reported[scale] {
			ul.base[scale] = ul.base[scale].add(prev)
			delete(ul.last, scale)
		}
	}
}

// labTotals returns the fleet-wide monotonic counters per scale, summed
// over every URL ever observed.
//
//hotnoc:deterministic
func (l *statsLedger) labTotals() map[int]labCounters {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[int]labCounters{}
	for _, url := range slices.Sorted(maps.Keys(l.byURL)) {
		ul := l.byURL[url]
		for _, scale := range ul.scales() {
			out[scale] = out[scale].add(ul.total(scale))
		}
	}
	return out
}

// perWorker returns each observed worker URL's monotonic counters,
// summed over scales, sorted by URL — the per-worker series on the
// coordinator's /metrics.
//
//hotnoc:deterministic
func (l *statsLedger) perWorker() (urls []string, counters []labCounters) {
	l.mu.Lock()
	defer l.mu.Unlock()
	urls = slices.Sorted(maps.Keys(l.byURL))
	counters = make([]labCounters, len(urls))
	for i, url := range urls {
		ul := l.byURL[url]
		for _, scale := range ul.scales() {
			counters[i] = counters[i].add(ul.total(scale))
		}
	}
	return urls, counters
}

// RefreshStats fetches and folds in every reachable worker's stats,
// updating the ledger the metrics collector reads. The coordinator's
// /metrics handler calls it per scrape, making the scrape the fleet's
// natural aggregation trigger.
func (c *Coordinator) RefreshStats(ctx context.Context) {
	c.FleetStats(ctx)
}

// MetricsCollector returns an obs.Collector contributing the fleet's
// aggregate view to a coordinator's registry at scrape time: monotonic
// per-worker-labeled counters (by worker URL — stable across lease
// expiry and re-registration), fleet-wide monotonic sums, and the live
// worker-count gauge.
func (c *Coordinator) MetricsCollector() obs.Collector {
	counter := func(name, help, worker string, v uint64) obs.Sample {
		s := obs.Sample{Name: name, Type: obs.TypeCounter, Help: help, Value: float64(v)}
		if worker != "" {
			s.Labels = obs.Labels{"worker": worker}
		}
		return s
	}
	return func(emit func(obs.Sample)) {
		urls, counters := c.ledger.perWorker()
		var total labCounters
		for i, url := range urls {
			ct := counters[i]
			total = total.add(ct)
			emit(counter("hotnocd_fleet_worker_decodes_total", "Engine decodes per fleet worker (monotonic across restarts).", url, ct.decodes))
			emit(counter("hotnocd_fleet_worker_cache_hits_total", "Characterization cache hits per fleet worker.", url, ct.cacheHits))
			emit(counter("hotnocd_fleet_worker_cache_misses_total", "Characterization cache misses per fleet worker.", url, ct.cacheMisses))
			emit(counter("hotnocd_fleet_worker_build_hits_total", "Build cache hits per fleet worker.", url, ct.buildHits))
			emit(counter("hotnocd_fleet_worker_build_misses_total", "Build cache misses per fleet worker.", url, ct.buildMisses))
		}
		emit(counter("hotnocd_fleet_decodes_total", "Fleet-wide engine decodes (monotonic across worker restarts).", "", total.decodes))
		emit(counter("hotnocd_fleet_cache_hits_total", "Fleet-wide characterization cache hits.", "", total.cacheHits))
		emit(counter("hotnocd_fleet_cache_misses_total", "Fleet-wide characterization cache misses.", "", total.cacheMisses))
		emit(counter("hotnocd_fleet_build_hits_total", "Fleet-wide build cache hits.", "", total.buildHits))
		emit(counter("hotnocd_fleet_build_misses_total", "Fleet-wide build cache misses.", "", total.buildMisses))
		// c.live, not c.WorkerCount(): the collector runs under the
		// registry lock and must not take c.mu (lockorder rule).
		emit(obs.Sample{Name: "hotnocd_fleet_workers", Type: obs.TypeGauge,
			Help: "Live fleet workers.", Value: float64(c.live.Load())})
	}
}
