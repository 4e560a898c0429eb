package thermal

import (
	"fmt"
	"math"
)

// Transient integrates the RC network in time with the backward-Euler
// method:
//
//	(C/dt + G) · T(t+dt) = C/dt · T(t) + P(t) + B
//
// Backward Euler is unconditionally stable, so the step size is chosen for
// accuracy (a few microseconds against millisecond-scale thermal time
// constants) rather than stability. The iteration matrix is factorised once
// per step size and reused across all steps and power maps.
type Transient struct {
	nw *Network
	dt float64
	f  *BandedLU

	// T is the current full node temperature vector.
	T []float64
	// Time is the elapsed simulated time in seconds.
	Time float64

	rhs []float64
	pv  []float64
}

// NewTransient creates an integrator with step dt (seconds), starting from
// a uniform ambient-temperature state.
func NewTransient(nw *Network, dt float64) (*Transient, error) {
	f, err := factorStep(nw, dt)
	if err != nil {
		return nil, err
	}
	return newTransient(nw, dt, f), nil
}

// factorStep factorises the backward-Euler iteration matrix C/dt + G for
// step size dt. Adding C/dt to the diagonal preserves symmetry, diagonal
// dominance, and the band pattern, so the banded factorisation applies
// unchanged. The factorisation depends only on (network, dt), so an
// Evaluator caches it across any number of integrations.
func factorStep(nw *Network, dt float64) (*BandedLU, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("thermal: non-positive step %g", dt)
	}
	m := nw.G.Clone()
	for i := 0; i < nw.NNodes; i++ {
		m.Add(i, i, nw.C[i]/dt)
	}
	return FactorBanded(m, nw.Sink(), nw.BandPerm())
}

// newTransient wires an integrator around a previously factorised
// iteration matrix for the same (network, dt).
func newTransient(nw *Network, dt float64, f *BandedLU) *Transient {
	tr := &Transient{
		nw:  nw,
		dt:  dt,
		f:   f,
		T:   make([]float64, nw.NNodes),
		rhs: make([]float64, nw.NNodes),
		pv:  make([]float64, nw.NNodes),
	}
	tr.Reset()
	return tr
}

// Reset returns the state to uniform ambient temperature at time zero.
func (tr *Transient) Reset() {
	for i := range tr.T {
		tr.T[i] = tr.nw.Par.AmbientC
	}
	tr.Time = 0
}

// SetState overwrites the die and package state with a previously captured
// full node vector (e.g. to branch a what-if simulation).
func (tr *Transient) SetState(full []float64, time float64) {
	if len(full) != len(tr.T) {
		panic("thermal: SetState dimension mismatch")
	}
	copy(tr.T, full)
	tr.Time = time
}

// State returns a copy of the full node temperature vector.
func (tr *Transient) State() []float64 { return append([]float64(nil), tr.T...) }

// Step advances one dt with the given per-block die power map (watts).
//
//hotnoc:noalloc
func (tr *Transient) Step(blockPower []float64) {
	tr.nw.powerVector(tr.pv, blockPower)
	for i := range tr.rhs {
		tr.rhs[i] = tr.nw.C[i]/tr.dt*tr.T[i] + tr.pv[i] + tr.nw.B[i]
	}
	tr.f.Solve(tr.T, tr.rhs)
	tr.Time += tr.dt
}

// StepFor integrates the given power map for a duration, rounding the
// number of steps to the nearest whole step (minimum one).
func (tr *Transient) StepFor(blockPower []float64, duration float64) {
	steps := int(math.Round(duration / tr.dt))
	if steps < 1 {
		steps = 1
	}
	for s := 0; s < steps; s++ {
		tr.Step(blockPower)
	}
}

// Die returns a copy of the current die-layer temperatures.
func (tr *Transient) Die() []float64 { return tr.nw.DieTemps(tr.T) }

// DieInto writes the current die-layer temperatures into dst without
// allocating; dst must have NDie entries.
//
//hotnoc:noalloc
func (tr *Transient) DieInto(dst []float64) { tr.nw.DieTempsInto(dst, tr.T) }

// ScheduleEntry is one segment of a piecewise-constant power schedule: the
// chip dissipates Power (per-block watts) for Duration seconds. A migration
// scheme's orbit becomes one entry per distinct placement, plus entries for
// the migration windows themselves.
type ScheduleEntry struct {
	Power    []float64
	Duration float64
	// Label annotates the entry in traces ("placement 2", "migration").
	Label string
}

// CycleResult summarises the quasi-steady thermal cycle reached by
// repeating a power schedule.
type CycleResult struct {
	// PeakC is the hottest die temperature observed anywhere in the cycle
	// (the paper's figure-of-merit).
	PeakC float64
	// PeakBlock is the row-major block index where PeakC occurred.
	PeakBlock int
	// MeanC is the time- and space-averaged die temperature over the
	// cycle (the metric for the rotation energy penalty).
	MeanC float64
	// MaxPerBlock holds each block's maximum temperature over the cycle.
	MaxPerBlock []float64
	// Repetitions is the number of schedule repetitions integrated before
	// convergence.
	Repetitions int
	// CycleTime is the duration of one schedule repetition in seconds.
	CycleTime float64
}

// CycleOptions tunes RunCycle.
type CycleOptions struct {
	// Dt is the integrator step (default 5 µs).
	Dt float64
	// TolC is the convergence tolerance on the repetition-start state
	// (default 0.005 °C).
	TolC float64
	// MaxReps bounds the repetitions (default 20000).
	MaxReps int
	// Leak, when non-nil, writes the additional per-block leakage power
	// for the current die temperatures into dst, closing the
	// electrothermal loop. The Into signature keeps the per-step hot loop
	// allocation-free (power.Leakage.Into satisfies it).
	Leak func(dst, dieTemps []float64)
}

func (o *CycleOptions) setDefaults() {
	if o.Dt <= 0 {
		o.Dt = 5e-6
	}
	if o.TolC <= 0 {
		o.TolC = 0.005
	}
	if o.MaxReps <= 0 {
		o.MaxReps = 20000
	}
}

// RunCycle integrates the repeating schedule until the temperature state at
// the start of consecutive repetitions converges (the quasi-steady thermal
// cycle of a periodic migration), then records peak and mean statistics
// over one further repetition. It reuses the evaluator's cached
// factorisations and scratch, so repeated evaluations on one network
// factorise nothing.
func (ev *Evaluator) RunCycle(entries []ScheduleEntry, opts CycleOptions) (CycleResult, error) {
	nw := ev.nw
	opts.setDefaults()
	if len(entries) == 0 {
		return CycleResult{}, fmt.Errorf("thermal: empty power schedule")
	}
	cycleTime := 0.0
	for i, e := range entries {
		if len(e.Power) != nw.NDie {
			return CycleResult{}, fmt.Errorf("thermal: entry %d power map has %d blocks, want %d",
				i, len(e.Power), nw.NDie)
		}
		if e.Duration <= 0 {
			return CycleResult{}, fmt.Errorf("thermal: entry %d has non-positive duration", i)
		}
		cycleTime += e.Duration
	}

	tr, err := ev.Transient(opts.Dt)
	if err != nil {
		return CycleResult{}, err
	}
	sc := ev.scratch()

	// Warm start: the heat-sink time constant (~RConvection·CSink, minutes)
	// dwarfs the schedule period, so integrating from ambient would take
	// millions of repetitions to warm the package. Instead start from the
	// steady state of the time-averaged power map (iterating the leakage
	// feedback to a fixed point), which the quasi-steady cycle orbits
	// around; convergence then takes only a handful of repetitions.
	avg := sc.avg
	for i := range avg {
		avg[i] = 0
	}
	for _, e := range entries {
		w := e.Duration / cycleTime
		for i, p := range e.Power {
			avg[i] += w * p
		}
	}
	ss := ev.ss
	withLeak := sc.withLeak
	copy(withLeak, avg)
	state, next := sc.state, sc.stateNext
	ss.SolveFullInto(state, withLeak)
	if opts.Leak != nil {
		for it := 0; it < 50; it++ {
			nw.DieTempsInto(sc.die, state)
			opts.Leak(sc.leak, sc.die)
			copy(withLeak, avg)
			for i, l := range sc.leak {
				withLeak[i] += l
			}
			ss.SolveFullInto(next, withLeak)
			done := vecMaxAbsDiff(next, state) < opts.TolC/10
			state, next = next, state
			if err := checkFinite(state); err != nil {
				return CycleResult{}, fmt.Errorf("thermal: electrothermal runaway during warm start (leakage diverges at this power level): %w", err)
			}
			if done {
				break
			}
		}
	}
	tr.SetState(state, 0)

	power := sc.power
	runEntry := func(e ScheduleEntry, record *CycleResult, meanAcc *float64, samples *int) {
		steps := int(math.Round(e.Duration / opts.Dt))
		if steps < 1 {
			steps = 1
		}
		for s := 0; s < steps; s++ {
			copy(power, e.Power)
			if opts.Leak != nil {
				nw.DieTempsInto(sc.die, tr.T)
				opts.Leak(sc.leak, sc.die)
				for i, l := range sc.leak {
					power[i] += l
				}
			}
			tr.Step(power)
			if record != nil {
				for i := 0; i < nw.NDie; i++ {
					t := tr.T[i]
					if t > record.MaxPerBlock[i] {
						record.MaxPerBlock[i] = t
					}
					*meanAcc += t
				}
				*samples += nw.NDie
			}
		}
	}

	// Convergence check against a ping-pong copy of the repetition-start
	// state instead of a tr.State() clone per repetition.
	prev := sc.prev
	copy(prev, tr.T)
	reps := 0
	for ; reps < opts.MaxReps; reps++ {
		for _, e := range entries {
			runEntry(e, nil, nil, nil)
		}
		if vecMaxAbsDiff(tr.T, prev) < opts.TolC {
			reps++
			break
		}
		copy(prev, tr.T)
	}

	res := CycleResult{
		MaxPerBlock: make([]float64, nw.NDie),
		Repetitions: reps,
		CycleTime:   cycleTime,
	}
	for i := range res.MaxPerBlock {
		res.MaxPerBlock[i] = -math.MaxFloat64
	}
	meanAcc, samples := 0.0, 0
	for _, e := range entries {
		runEntry(e, &res, &meanAcc, &samples)
	}
	res.PeakC, res.PeakBlock = Peak(res.MaxPerBlock)
	res.MeanC = meanAcc / float64(samples)
	if err := checkFinite([]float64{res.PeakC, res.MeanC}); err != nil {
		return CycleResult{}, fmt.Errorf("thermal: cycle integration diverged: %w", err)
	}
	return res, nil
}

// checkFinite returns an error naming the first non-finite entry.
func checkFinite(v []float64) error {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("non-finite temperature (entry %d = %g)", i, x)
		}
	}
	return nil
}
