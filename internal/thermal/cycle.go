package thermal

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// RunCycle integrates the repeating schedule until the temperature state at
// the start of consecutive repetitions converges (the quasi-steady thermal
// cycle of a periodic migration), then records peak and mean statistics
// over one further repetition. It reuses the evaluator's cached
// factorisations and scratch, so repeated evaluations on one network
// factorise nothing. It is the one-schedule case of RunCycleSet.
func (ev *Evaluator) RunCycle(entries []ScheduleEntry, opts CycleOptions) (CycleResult, error) {
	var res [1]CycleResult
	if err := ev.RunCycleSet([][]ScheduleEntry{entries}, opts, res[:]); err != nil {
		// A lone schedule needs no index.
		if se := (*CycleSetError)(nil); errors.As(err, &se) {
			err = se.Err
		}
		return CycleResult{}, err
	}
	return res[0], nil
}

// CycleSetError is the failure of one schedule of a RunCycleSet;
// Schedule is its index in the set.
type CycleSetError struct {
	Schedule int
	Err      error
}

func (e *CycleSetError) Error() string { return fmt.Sprintf("schedule %d: %v", e.Schedule, e.Err) }

func (e *CycleSetError) Unwrap() error { return e.Err }

// RunCycleSet runs RunCycle for every schedule of scheds under the one
// opts and writes the results to out (same length, input order), each
// bitwise identical to RunCycle of that schedule alone. The schedules
// share the network, the step and the leakage model, so StepLanes
// advances up to MaxStates of them in lockstep, taking each
// backward-Euler step through one banded solve. Every schedule keeps its
// own cursor (entry, steps left in it, repetition, repetition-start
// state, recording flag, statistics), so schedules of different lengths
// that converge after different repetitions still share every solve. A
// schedule that fails validation fails the set before any work starts; a
// failure that belongs to one schedule is a *CycleSetError naming it. It
// allocates only the results' MaxPerBlock maps and, for more schedules
// than lanes, their start order (TestHotLoopsAllocationFree).
func (ev *Evaluator) RunCycleSet(scheds [][]ScheduleEntry, opts CycleOptions, out []CycleResult) error {
	if len(out) != len(scheds) {
		panic(fmt.Sprintf("thermal: RunCycleSet with %d schedules and %d results", len(scheds), len(out)))
	}
	opts.setDefaults()
	for k, entries := range scheds {
		if len(entries) == 0 {
			return &CycleSetError{Schedule: k, Err: fmt.Errorf("thermal: empty power schedule")}
		}
		cycleTime := 0.0
		for i, e := range entries {
			if len(e.Power) != ev.nw.NDie {
				return &CycleSetError{Schedule: k, Err: fmt.Errorf("thermal: entry %d power map has %d blocks, want %d",
					i, len(e.Power), ev.nw.NDie)}
			}
			if e.Duration <= 0 {
				return &CycleSetError{Schedule: k, Err: fmt.Errorf("thermal: entry %d has non-positive duration", i)}
			}
			if _, err := Steps(e.Duration, opts.Dt); err != nil {
				return &CycleSetError{Schedule: k, Err: fmt.Errorf("thermal: entry %d: %w", i, err)}
			}
			cycleTime += e.Duration
		}
		out[k] = CycleResult{CycleTime: cycleTime}
	}
	if len(scheds) == 0 {
		return nil
	}
	tr, err := ev.Transient(opts.Dt)
	if err != nil {
		return err
	}
	n := ev.nw.NDie
	sc := ev.scratch(min(len(scheds), MaxStates))
	order := startOrder(scheds, opts.Dt)
	next := 0
	return ev.StepLanes(tr, opts.Leak, len(scheds), LaneRuns{
		Start: func(c int, T []float64) ([]float64, error) {
			if next == len(scheds) {
				return nil, nil
			}
			k := next
			if order != nil {
				k = order[next]
			}
			next++
			run := &sc.cycles[c]
			*run = cycleRun{sched: k, entries: scheds[k], res: out[k], prev: run.prev}
			warm, err := ev.WarmStart(run.average(sc.avg), opts.Leak, opts.TolC/10)
			if err != nil {
				return nil, &CycleSetError{Schedule: k, Err: err}
			}
			copy(T, warm)
			copy(run.prev, T)
			run.left, _ = Steps(run.entries[0].Duration, opts.Dt)
			return run.entries[0].Power, nil
		},
		Stepped: func(c int, T []float64) ([]float64, error) {
			run := &sc.cycles[c]
			if run.recording {
				run.record(T[:n])
			}
			if run.advance(T, &opts) {
				return run.entries[run.entry].Power, nil
			}
			if err := run.finish(); err != nil {
				return nil, &CycleSetError{Schedule: run.sched, Err: err}
			}
			out[run.sched] = run.res
			*run = cycleRun{prev: run.prev}
			return nil, nil
		},
	})
}

// cycleRun is the cursor of the schedule on one lane of a cycle set. It
// ignores Steps' error: RunCycleSet checked every entry's count.
type cycleRun struct {
	sched   int // index of the schedule in the set
	entries []ScheduleEntry
	// res is the schedule's result in the making, copied out when the
	// recorded repetition ends.
	res CycleResult

	entry     int  // current entry
	left      int  // integration steps left in the current entry
	recording bool // in the recorded repetition after convergence
	meanAcc   float64
	samples   int
	prev      []float64 // repetition-start state, NNodes
}

// startOrder returns the order in which a set of more schedules than
// lanes starts them: longest repetition first (ties in input order), so
// the schedules that finish first, and hand their lanes on, are the
// short ones, and a long schedule does not start late and step alone at
// the end. With every schedule in a lane from the start the order does
// not matter, and startOrder returns nil for input order. A schedule's
// result never depends on when it starts.
func startOrder(scheds [][]ScheduleEntry, dt float64) []int {
	if len(scheds) <= MaxStates {
		return nil
	}
	repSteps := func(k int) float64 { // a float: the sum of counts that fit an int need not
		steps := 0.0
		for _, e := range scheds[k] {
			s, _ := Steps(e.Duration, dt)
			steps += float64(s)
		}
		return steps
	}
	order := make([]int, len(scheds))
	for k := range order {
		order[k] = k
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(repSteps(b), repSteps(a)) })
	return order
}

// average writes the schedule's time-averaged power map to avg and
// returns it: the quasi-steady cycle orbits around its warm start, so
// convergence takes only a handful of repetitions.
//
//hotnoc:noalloc
func (run *cycleRun) average(avg []float64) []float64 {
	clear(avg)
	for _, e := range run.entries {
		w := e.Duration / run.res.CycleTime
		for i, p := range e.Power {
			avg[i] += float64(w * p)
		}
	}
	return avg
}

// record folds the die temperatures die the cursor's last step reached
// into its recorded repetition's statistics.
//
//hotnoc:noalloc
func (run *cycleRun) record(die []float64) {
	maxPer := run.res.MaxPerBlock
	for i, t := range die {
		if t > maxPer[i] {
			maxPer[i] = t
		}
		run.meanAcc += t
	}
	run.samples += len(die)
}

// advance moves the cursor past the step that reached state T. At the
// end of a repetition before convergence, T is compared with the
// repetition's start: a change below TolC, or the MaxReps-th repetition,
// starts the recorded repetition. It reports false when the recorded
// repetition has ended.
func (run *cycleRun) advance(T []float64, opts *CycleOptions) bool {
	if run.left--; run.left > 0 {
		return true
	}
	if run.entry++; run.entry == len(run.entries) {
		if run.recording {
			return false
		}
		run.entry = 0
		run.res.Repetitions++
		if run.res.Repetitions >= opts.MaxReps || vecMaxAbsDiff(T, run.prev) < opts.TolC {
			run.startRecording(len(run.entries[0].Power))
		} else {
			copy(run.prev, T)
		}
	}
	run.left, _ = Steps(run.entries[run.entry].Duration, opts.Dt)
	return true
}

// startRecording begins the repetition of n blocks whose statistics the
// result reports.
func (run *cycleRun) startRecording(n int) {
	run.recording = true
	run.meanAcc, run.samples = 0, 0
	run.res.MaxPerBlock = make([]float64, n)
	for i := range run.res.MaxPerBlock {
		run.res.MaxPerBlock[i] = -math.MaxFloat64
	}
}

// finish completes the cursor's result from its recorded repetition.
func (run *cycleRun) finish() error {
	res := &run.res
	res.PeakC, res.PeakBlock = Peak(res.MaxPerBlock)
	res.MeanC = run.meanAcc / float64(run.samples)
	if err := checkFinite([]float64{res.PeakC, res.MeanC}); err != nil {
		return fmt.Errorf("thermal: cycle integration diverged: %w", err)
	}
	return nil
}
