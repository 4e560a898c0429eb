package main

import (
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// metric is one reported number with its unit, as printed in the result
// line and stored in result files.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the middle value (the mean of the two middle values for
// an even count), as Python's statistics.median does. It returns 0 for no
// values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// quartiles returns the first and third quartiles with the method of
// Python's statistics.quantiles(v, n=4) (the default "exclusive" method),
// so spreads computed here match the ones that function gives for the
// same values. One value has no spread: both quartiles are that value.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(v))
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise measure the bounds in BENCHMARK.json are judged by.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs(q3-q1) / math.Abs(m)
}

// percentile returns the nearest-rank p-th percentile of v (the smallest
// value with at least p% of the samples at or below it) and how many
// samples lie beyond it. A tail percentile is trustworthy only with at
// least ten samples beyond it.
func percentile(v []float64, p float64) (value float64, beyond int) {
	if len(v) == 0 {
		return 0, 0
	}
	s := slices.Sorted(slices.Values(v))
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s) - rank
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	at      time.Time
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
}

// snapshot reads CPU time (getrusage) and the allocator's cumulative
// counters. ReadMemStats stops the world briefly, so snapshots are taken
// only at phase boundaries.
func snapshot() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
	}
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
