package thermal

import (
	"fmt"
	"math"
)

// LaneRuns is a set of transient runs on one network, as StepLanes
// drives them: the set supplies where each run starts, the power map of
// its next step and what it does with each state it reaches.
type LaneRuns struct {
	// Start puts the next waiting run on lane c: it writes the run's
	// start state to T and returns the power map of its first step, or
	// nil when no run waits.
	Start func(c int, T []float64) ([]float64, error)
	// Stepped hands lane c's run the state T its last step reached and
	// returns the power map of its next step, or nil when it has ended.
	Stepped func(c int, T []float64) ([]float64, error)
}

// runLane is one lane of StepLanes: its run's state, the power map of the
// run's next step (nil on an idle lane), and the step's leakage and power.
type runLane struct {
	T           []float64 // NNodes
	base        []float64 // NDie
	leak, power []float64 // NDie
}

// StepLanes steps the runs of set on tr until every one has ended; runs
// bounds their number. Up to MaxStates runs hold a lane at a time. Each
// iteration writes every live lane's power map (its run's map plus, with
// leak set, the leakage of its die temperatures), steps all of them
// through one tr.StepStates and hands each run the state it reached; a
// lane whose run has ended goes to the next waiting run. Every run thus
// steps through the states its lone evaluation would, whatever its
// companions and its lane. The lanes live in the evaluator's scratch.
func (ev *Evaluator) StepLanes(tr *Transient, leak func(dst, dieTemps []float64), runs int, set LaneRuns) error {
	n := ev.nw.NDie
	lanes := ev.scratch(min(runs, MaxStates)).lanes[:min(runs, MaxStates)]
	for c := range lanes {
		base, err := set.Start(c, lanes[c].T)
		if err != nil {
			return err
		}
		lanes[c].base = base
	}
	var T, pow [MaxStates][]float64
	for {
		live := 0
		for c := range lanes {
			ln := &lanes[c]
			if ln.base == nil {
				continue
			}
			copy(ln.power, ln.base)
			if leak != nil {
				leak(ln.leak, ln.T[:n])
				for i, l := range ln.leak {
					ln.power[i] += l
				}
			}
			T[live], pow[live] = ln.T, ln.power
			live++
		}
		if live == 0 {
			return nil
		}
		tr.StepStates(T[:live], pow[:live])
		for c := range lanes {
			ln := &lanes[c]
			if ln.base == nil {
				continue
			}
			base, err := set.Stepped(c, ln.T)
			if err == nil && base == nil {
				base, err = set.Start(c, ln.T)
			}
			if err != nil {
				return err
			}
			ln.base = base
		}
	}
}

// WarmStart returns the steady state of the die power map power with the
// leakage feedback closed: the steady state of power, then, with leak
// set, up to 50 re-solves under power plus the previous state's leakage,
// until one moves no node by tol or more. Lockstep runs start there
// rather than at ambient, which the heat sink's minutes-long time
// constant would take millions of schedule repetitions to leave. The
// state lives in the evaluator's scratch until its next WarmStart.
func (ev *Evaluator) WarmStart(power []float64, leak func(dst, dieTemps []float64), tol float64) ([]float64, error) {
	sc := ev.scratch(0)
	state, next := sc.state, sc.stateNext
	ev.ss.SolveFullInto(state, power)
	for it := 0; leak != nil && it < 50; it++ {
		leak(sc.leak, state[:ev.nw.NDie])
		copy(sc.withLeak, power)
		for i, l := range sc.leak {
			sc.withLeak[i] += l
		}
		ev.ss.SolveFullInto(next, sc.withLeak)
		done := vecMaxAbsDiff(next, state) < tol
		state, next = next, state
		if err := checkFinite(state); err != nil {
			return nil, fmt.Errorf("thermal: electrothermal runaway during warm start (leakage diverges at this power level): %w", err)
		}
		if done {
			break
		}
	}
	return state, nil
}

// Steps is the number of dt steps integrating duration seconds: the
// duration rounded to the nearest step, at least one. A count that does
// not fit an int is an error.
//
//hotnoc:noalloc
func Steps(duration, dt float64) (int, error) {
	s := math.Round(duration / dt)
	if !(s < math.MaxInt) {
		return 0, fmt.Errorf("thermal: %g s in steps of %g s is more steps than an int holds", duration, dt)
	}
	return max(int(s), 1), nil
}
