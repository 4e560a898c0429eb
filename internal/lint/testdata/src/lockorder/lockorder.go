// Package lockorder exercises the scrape-time lock-ordering analyzer:
// gauge and counter callbacks must never acquire a //hotnoc:scrapelocked
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
// forbidden from a scrape-time callback.
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
	// A gauge callback acquiring the scrape-locked mutex directly.
	reg.GaugeFunc("jobs", "running jobs", nil, func() float64 {
		s.mu.Lock() // want `acquires server\.mu`
		defer s.mu.Unlock()
		return float64(s.jobs)
	})

	// A counter view reaching the mutex through two calls.
	reg.CounterFunc("jobs_total", "finished jobs", nil, func() uint64 {
		return uint64(s.countJobsIndirect()) // want `calls \(\*lockorder\.server\)\.countJobsIndirect, which calls \(\*lockorder\.server\)\.countJobs, which acquires server\.mu`
	})

	// A gauge callback reaching it through one call.
	reg.GaugeFunc("jobs", "running jobs", nil, func() float64 {
		return float64(s.countJobs()) // want `calls \(\*lockorder\.server\)\.countJobs, which acquires server\.mu`
	})

	// A counter view acquiring it directly.
	reg.CounterFunc("jobs_total", "finished jobs", nil, func() uint64 {
		s.mu.Lock() // want `acquires server\.mu`
		defer s.mu.Unlock()
		return uint64(s.jobs)
	})

	// Permitted: callbacks that only touch the unannotated mutex — the
	// rule constrains the scrape-locked one, not all locking.
	reg.GaugeFunc("jobs", "running jobs", nil, func() float64 {
		return float64(s.snapshot())
	})
	reg.CounterFunc("jobs_total", "finished jobs", nil, func() uint64 {
		return uint64(s.snapshot())
	})

	// Named methods passed as callbacks are roots too.
	reg.CounterFunc("jobs_total", "finished jobs", nil, s.lockedTotal)
	reg.GaugeFunc("jobs", "running jobs", nil, s.cleanGauge)
}

// lockedTotal is registered as a counter view by name, so it runs at
// scrape time even though no function literal is in sight.
func (s *server) lockedTotal() uint64 {
	s.mu.Lock() // want `acquires server\.mu`
	defer s.mu.Unlock()
	return uint64(s.jobs)
}

// cleanGauge is the permitted shape of the same idea.
func (s *server) cleanGauge() float64 {
	return float64(s.snapshot())
}
