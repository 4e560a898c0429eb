package core

import (
	"reflect"
	"sync"
	"testing"
)

// TestSharedEvaluation: evaluation is a concurrency-safe read of one
// System. Goroutines sharing a System and its characterizations get
// results bitwise identical to serial evaluation on a fresh System, and
// the System's baseline memo never serves a characterization whose
// baseline inputs differ from the ones it was computed from.
func TestSharedEvaluation(t *testing.T) {
	sys := buildSystem(t, 4)
	schemes := AllSchemes()
	chars := make([]*Characterization, len(schemes))
	for i, s := range schemes {
		ch, err := sys.Characterize(s)
		if err != nil {
			t.Fatal(err)
		}
		chars[i] = ch
	}

	// One job per (scheme, variant): six periodic variants and one
	// reactive run per scheme, plus one evaluation set of every scheme's
	// one-block point.
	type job struct {
		ch  *Characterization
		cfg *EvalConfig
		rc  *ReactiveConfig
	}
	var jobs []job
	for i, s := range schemes {
		for _, blocks := range []int{1, 4, 8} {
			for _, excl := range []bool{false, true} {
				jobs = append(jobs, job{ch: chars[i], cfg: &EvalConfig{BlocksPerPeriod: blocks, ExcludeMigrationEnergy: excl}})
			}
		}
		jobs = append(jobs, job{ch: chars[i], rc: &ReactiveConfig{
			Scheme: s, TriggerC: 55, SimBlocks: 120, WarmupBlocks: 60,
		}})
	}
	jobs = append(jobs, job{}) // the set
	run := func(s *System, j job) (any, error) {
		switch {
		case j.rc != nil:
			return s.EvaluateReactive(j.ch, *j.rc)
		case j.ch == nil:
			return s.EvaluateSet(chars, make([]EvalConfig, len(chars)))
		}
		return s.Evaluate(j.ch, *j.cfg)
	}

	t.Run("concurrent", func(t *testing.T) {
		fresh := buildSystem(t, 4)
		want := make([]any, len(jobs))
		for k, j := range jobs {
			res, err := run(fresh, j)
			if err != nil {
				t.Fatal(err)
			}
			want[k] = res
		}

		const workers = 8
		got := make([][]any, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			got[w] = make([]any, len(jobs))
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Start each worker at a different job so cache misses,
				// hits and evaluator loans interleave.
				for n := range jobs {
					k := (n + w*len(jobs)/workers) % len(jobs)
					res, err := run(sys, jobs[k])
					if err != nil {
						errs[w] = err
						return
					}
					got[w][k] = res
				}
			}()
		}
		wg.Wait()
		for w := range got {
			if errs[w] != nil {
				t.Fatalf("worker %d: %v", w, errs[w])
			}
			for k := range jobs {
				if !reflect.DeepEqual(got[w][k], want[k]) {
					t.Errorf("worker %d job %d: shared evaluation differs from serial", w, k)
				}
			}
		}
	})

	t.Run("baseline inputs", func(t *testing.T) {
		cfg := EvalConfig{BlocksPerPeriod: 4}
		orig, err := sys.Evaluate(chars[0], cfg)
		if err != nil {
			t.Fatal(err)
		}
		scaled := *chars[0]
		scaled.BaselineBlockJ = make([]float64, len(chars[0].BaselineBlockJ))
		for i, j := range chars[0].BaselineBlockJ {
			scaled.BaselineBlockJ[i] = 1.1 * j
		}
		got, err := sys.Evaluate(&scaled, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := buildSystem(t, 4).Evaluate(&scaled, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scaled baseline on a used System: peak %v °C, on a fresh one %v °C",
				got.BaselinePeakC, want.BaselinePeakC)
		}
		if got.BaselinePeakC == orig.BaselinePeakC {
			t.Fatalf("scaling the baseline energy left its peak at %v °C", orig.BaselinePeakC)
		}
	})
}
