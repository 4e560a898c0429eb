// Package lockorder exercises the scrape-time lock-ordering analyzer:
// collectors must never acquire a //hotnoc:scrapelocked
// mutex, directly or through any chain of calls.
package lockorder

import (
	"sync"

	"obs"
)

type server struct {
	// mu guards server state and is held around instrument
	// registration, so scrape-time code must never take it.
	mu sync.Mutex //hotnoc:scrapelocked

	// statsMu guards only the stats snapshot and is safe at scrape
	// time: unannotated mutexes are out of scope.
	statsMu sync.Mutex

	jobs int
}

// countJobs takes the server mutex: fine from a request handler,
// forbidden from a collector.
func (s *server) countJobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs
}

// countJobsIndirect reaches the mutex through one more hop, which the
// transitive walk must see through.
func (s *server) countJobsIndirect() int {
	return s.countJobs()
}

// snapshot uses only the unannotated stats mutex.
func (s *server) snapshot() int {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.jobs
}

func register(reg *obs.Registry, s *server) {
	// A collector acquiring the scrape-locked mutex directly.
	reg.Collect(func(emit func(obs.Sample)) {
		s.mu.Lock() // want `acquires server\.mu`
		defer s.mu.Unlock()
		emit(obs.Sample{Name: "jobs", Value: float64(s.jobs)})
	})

	// A collector reaching the mutex through two calls.
	reg.Collect(func(emit func(obs.Sample)) {
		emit(obs.Sample{Name: "jobs", Value: float64(s.countJobsIndirect())}) // want `calls \(\*lockorder\.server\)\.countJobsIndirect, which calls \(\*lockorder\.server\)\.countJobs, which acquires server\.mu`
	})

	// A gauge callback is scrape-time code too.
	reg.GaugeFunc("jobs", "running jobs", nil, func() float64 {
		return float64(s.countJobs()) // want `calls \(\*lockorder\.server\)\.countJobs, which acquires server\.mu`
	})

	// So is a counter view.
	reg.CounterFunc("jobs_total", "finished jobs", nil, func() uint64 {
		s.mu.Lock() // want `acquires server\.mu`
		defer s.mu.Unlock()
		return uint64(s.jobs)
	})

	// Permitted: a collector that only touches the unannotated mutex —
	// the rule constrains the scrape-locked one, not all locking.
	reg.Collect(func(emit func(obs.Sample)) {
		emit(obs.Sample{Name: "jobs", Value: float64(s.snapshot())})
	})
}

// jobsCollector returns a collector the registry will call at scrape
// time; returned literals are roots even though no Collect call is in
// sight.
func jobsCollector(s *server) obs.Collector {
	return func(emit func(obs.Sample)) {
		s.mu.Lock() // want `acquires server\.mu`
		defer s.mu.Unlock()
		emit(obs.Sample{Name: "jobs", Value: float64(s.jobs)})
	}
}

// cleanCollector is the permitted shape of the same idea.
func cleanCollector(s *server) obs.Collector {
	return func(emit func(obs.Sample)) {
		emit(obs.Sample{Name: "jobs", Value: float64(s.snapshot())})
	}
}
