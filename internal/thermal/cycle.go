package thermal

import (
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
// share the network, the step and the leakage model, so up to MaxStates
// of them advance in lockstep, taking each backward-Euler step through one
// banded solve (Transient.StepStates). Every schedule keeps its own cursor
// (entry, steps left in it, repetition, repetition-start state, recording
// flag, statistics), so schedules of different lengths that converge after
// different repetitions still share every solve; a schedule whose
// recorded repetition ends hands its lane to the next waiting one. A
// schedule that fails validation fails the set before any work starts; a
// failure that belongs to one schedule is a *CycleSetError naming it.
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
	return ev.stepCycles(tr, scheds, &opts, out)
}

// cycleLane is one lane of a lockstep cycle set: the cursor of the
// schedule it carries, that schedule's node-temperature state and
// repetition-start state, and its leakage and power scratch.
type cycleLane struct {
	sched   int // index of the schedule in the set
	entries []ScheduleEntry
	// res is the schedule's result in the making; it is copied out when
	// the recorded repetition ends, so the lane keeps no pointer into
	// the caller's results.
	res CycleResult

	entry     int  // current entry
	left      int  // integration steps left in the current entry
	recording bool // in the recorded repetition after convergence
	meanAcc   float64
	samples   int

	T, prev     []float64 // NNodes
	leak, power []float64 // NDie
}

// stepCycles integrates every schedule from its warm start to the end of
// its recorded repetition. Live schedules fill the lanes; each iteration
// assembles every live lane's leakage-coupled power map, takes one step of
// all of them through tr.StepStates, then advances each lane's cursor,
// and a lane whose schedule is done takes the next waiting one. Each
// schedule sees exactly the sequence of operations its lone evaluation
// performs, so its result does not depend on its companions. It
// allocates only the results' MaxPerBlock maps and, for more schedules
// than lanes, their start order (TestHotLoopsAllocationFree).
func (ev *Evaluator) stepCycles(tr *Transient, scheds [][]ScheduleEntry, opts *CycleOptions, out []CycleResult) error {
	n := ev.nw.NDie
	width := min(len(scheds), MaxStates)
	lanes := ev.scratch(width).lanes[:width]
	order := startOrder(scheds, opts.Dt)
	next := 0
	// start puts the next waiting schedule on ln, warm-started; it
	// reports false when none waits.
	start := func(ln *cycleLane) (bool, error) {
		if next == len(scheds) {
			return false, nil
		}
		k := next
		if order != nil {
			k = order[next]
		}
		next++
		ln.sched, ln.entries, ln.res = k, scheds[k], CycleResult{CycleTime: out[k].CycleTime}
		if err := ev.warmStart(ln, opts); err != nil {
			return false, &CycleSetError{Schedule: k, Err: err}
		}
		return true, nil
	}
	live := 0
	for live < len(lanes) {
		ok, err := start(&lanes[live])
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		live++
	}
	var T, pow [MaxStates][]float64
	for live > 0 {
		for c := range live {
			ln := &lanes[c]
			ln.assemble(opts.Leak, n)
			T[c], pow[c] = ln.T, ln.power
		}
		tr.StepStates(T[:live], pow[:live])
		for c := 0; c < live; {
			ln := &lanes[c]
			if ln.recording {
				ln.record(n)
			}
			if ln.advance(opts) {
				c++
				continue
			}
			if err := ln.finish(); err != nil {
				return &CycleSetError{Schedule: ln.sched, Err: err}
			}
			out[ln.sched], ln.res = ln.res, CycleResult{}
			ok, err := start(ln)
			if err != nil {
				return err
			}
			if ok {
				c++
				continue
			}
			// Nothing waits for this lane: retire it, and step the last
			// live lane in its place.
			ln.entries = nil
			live--
			lanes[c], lanes[live] = lanes[live], lanes[c]
		}
	}
	return nil
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
	repSteps := func(k int) int {
		steps := 0
		for _, e := range scheds[k] {
			steps += entrySteps(e, dt)
		}
		return steps
	}
	order := make([]int, len(scheds))
	for k := range order {
		order[k] = k
	}
	slices.SortStableFunc(order, func(a, b int) int { return repSteps(b) - repSteps(a) })
	return order
}

// warmStart sets the lane's state to its schedule's warm start and its
// cursor to the first step of the first repetition.
//
// The heat-sink time constant (~RConvection·CSink, minutes) dwarfs the
// schedule period, so integrating from ambient would take millions of
// repetitions to warm the package. Instead the state starts from the
// steady state of the time-averaged power map (iterating the leakage
// feedback to a fixed point), which the quasi-steady cycle orbits
// around; convergence then takes only a handful of repetitions.
func (ev *Evaluator) warmStart(ln *cycleLane, opts *CycleOptions) error {
	nw, sc := ev.nw, ev.sc
	avg := sc.avg
	for i := range avg {
		avg[i] = 0
	}
	cycleTime := ln.res.CycleTime
	for _, e := range ln.entries {
		w := e.Duration / cycleTime
		for i, p := range e.Power {
			avg[i] += float64(w * p)
		}
	}
	ss := ev.ss
	withLeak := sc.withLeak
	copy(withLeak, avg)
	state, next := sc.state, sc.stateNext
	ss.SolveFullInto(state, withLeak)
	if opts.Leak != nil {
		for it := 0; it < 50; it++ {
			opts.Leak(ln.leak, state[:nw.NDie])
			copy(withLeak, avg)
			for i, l := range ln.leak {
				withLeak[i] += l
			}
			ss.SolveFullInto(next, withLeak)
			done := vecMaxAbsDiff(next, state) < opts.TolC/10
			state, next = next, state
			if err := checkFinite(state); err != nil {
				return fmt.Errorf("thermal: electrothermal runaway during warm start (leakage diverges at this power level): %w", err)
			}
			if done {
				break
			}
		}
	}
	copy(ln.T, state)
	// The convergence check compares against a copy of the
	// repetition-start state.
	copy(ln.prev, ln.T)
	ln.entry, ln.left = 0, entrySteps(ln.entries[0], opts.Dt)
	ln.recording = false
	return nil
}

// entrySteps is the number of dt steps integrating entry e: its duration
// rounded to the nearest step, at least one.
func entrySteps(e ScheduleEntry, dt float64) int {
	return max(int(math.Round(e.Duration/dt)), 1)
}

// assemble writes the lane's power map for its next step: the current
// entry's power plus, with leak set, the leakage of its die temperatures.
func (ln *cycleLane) assemble(leak func(dst, dieTemps []float64), n int) {
	copy(ln.power, ln.entries[ln.entry].Power)
	if leak != nil {
		leak(ln.leak, ln.T[:n])
		for i, l := range ln.leak {
			ln.power[i] += l
		}
	}
}

// record folds the die temperatures the lane's last step reached into
// its recorded repetition's statistics.
//
//hotnoc:noalloc
func (ln *cycleLane) record(n int) {
	maxPer := ln.res.MaxPerBlock
	for i := 0; i < n; i++ {
		t := ln.T[i]
		if t > maxPer[i] {
			maxPer[i] = t
		}
		ln.meanAcc += t
	}
	ln.samples += n
}

// advance moves the lane's cursor past the step just taken. At the end of
// a repetition before convergence, the state is compared with the
// repetition's start: a change below TolC, or the MaxReps-th repetition,
// starts the recorded repetition. It reports false when the recorded
// repetition has ended.
func (ln *cycleLane) advance(opts *CycleOptions) bool {
	if ln.left--; ln.left > 0 {
		return true
	}
	if ln.entry++; ln.entry == len(ln.entries) {
		if ln.recording {
			return false
		}
		ln.entry = 0
		ln.res.Repetitions++
		if ln.res.Repetitions >= opts.MaxReps || vecMaxAbsDiff(ln.T, ln.prev) < opts.TolC {
			ln.startRecording()
		} else {
			copy(ln.prev, ln.T)
		}
	}
	ln.left = entrySteps(ln.entries[ln.entry], opts.Dt)
	return true
}

// startRecording begins the repetition whose statistics the result
// reports.
func (ln *cycleLane) startRecording() {
	ln.recording = true
	ln.meanAcc, ln.samples = 0, 0
	ln.res.MaxPerBlock = make([]float64, len(ln.leak))
	for i := range ln.res.MaxPerBlock {
		ln.res.MaxPerBlock[i] = -math.MaxFloat64
	}
}

// finish completes the lane's result from its recorded repetition.
func (ln *cycleLane) finish() error {
	res := &ln.res
	res.PeakC, res.PeakBlock = Peak(res.MaxPerBlock)
	res.MeanC = ln.meanAcc / float64(ln.samples)
	if err := checkFinite([]float64{res.PeakC, res.MeanC}); err != nil {
		return fmt.Errorf("thermal: cycle integration diverged: %w", err)
	}
	return nil
}
