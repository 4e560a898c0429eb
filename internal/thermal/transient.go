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
	// cdt holds C[i]/dt per node: the diagonal the iteration matrix adds
	// to G, and the weight of the current state in every right-hand side.
	cdt []float64
}

// NewTransient creates an integrator with step dt (seconds). It holds no
// temperature state: StepStates advances caller-held node-temperature
// states. It factorises the iteration matrix C/dt + G: adding C/dt to the
// diagonal preserves symmetry, diagonal dominance, and the band pattern,
// so the banded factorisation applies unchanged, and it shifts G's
// diagonal by C/dt without copying G.
func NewTransient(nw *Network, dt float64) (*Transient, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("thermal: non-positive step %g", dt)
	}
	cdt := make([]float64, nw.NNodes)
	for i, c := range nw.C {
		cdt[i] = c / dt
	}
	f, err := factorBanded(nw.G, cdt, nw.Sink(), nw.BandPerm())
	if err != nil {
		return nil, err
	}
	return &Transient{nw: nw, dt: dt, f: f, cdt: cdt}, nil
}

// stepInto advances the node-temperature state T one dt in place. It
// assembles the right-hand side C/dt·T + P + B straight into the
// factorisation's banded scratch, node by node in the network's layout
// (die nodes, then spreaders, then the sink, the border), and solves into
// T. Only die nodes dissipate: the other nodes' power term is the literal
// + 0, which keeps the sum's rounding (a -0 product becomes +0) the same as
// adding a zero power entry.
//
//hotnoc:noalloc
func (tr *Transient) stepInto(T, blockPower []float64) {
	nw := tr.nw
	x, perm, cdt, B := tr.f.x, tr.f.perm, tr.cdt, nw.B
	for i, p := range blockPower {
		x[perm[i]] = float64(cdt[i]*T[i]) + p + B[i]
	}
	sink := nw.Sink()
	for i := nw.NDie; i < sink; i++ {
		x[perm[i]] = float64(cdt[i]*T[i]) + 0 + B[i]
	}
	tr.f.solveBordered(T, float64(cdt[sink]*T[sink])+0+B[sink])
}

// MaxStates is the most node-temperature states StepStates advances
// through one pass over the factorisation.
const MaxStates = 4

// StepStates advances len(T) independent node-temperature states by one
// dt each, state c under the die power map blockPower[c]. A single state
// takes stepInto's path; two to four states share each pass over the
// factorisation through the lockstep kernels (three ride the four-wide
// kernel, the spare column repeating the last state and discarded), and
// every state ends bitwise where stepInto from it would leave it.
//
//hotnoc:noalloc
func (tr *Transient) StepStates(T, blockPower [][]float64) {
	nw := tr.nw
	k := len(T)
	if k < 1 || k > MaxStates || len(blockPower) != k {
		panic(fmt.Sprintf("thermal: StepStates with %d states and %d power maps, want 1 to %d of each", k, len(blockPower), MaxStates))
	}
	for c := range T {
		if len(T[c]) != nw.NNodes || len(blockPower[c]) != nw.NDie {
			panic(fmt.Sprintf("thermal: state %d has %d nodes and %d block powers, want %d and %d",
				c, len(T[c]), len(blockPower[c]), nw.NNodes, nw.NDie))
		}
	}
	f := tr.f
	switch k {
	case 1:
		tr.stepInto(T[0], blockPower[0])
	case 2:
		x := f.lanes2()
		rb := assembleLanes(tr, x, T, blockPower)
		f.solve2(x)
		scatterLanes(f, x, T, f.border2(x, rb))
	default:
		x := f.lanes4()
		rb := assembleLanes(tr, x, T, blockPower)
		f.solve4(x)
		scatterLanes(f, x, T, f.border4(x, rb))
	}
}

// assembleLanes writes stepInto's right-hand side of each state T[c]
// under blockPower[c] into lane c of x, repeating the last state into any
// spare lane, and returns the border entries.
//
//hotnoc:noalloc
func assembleLanes[L lane](tr *Transient, x []L, T, blockPower [][]float64) (rb [4]float64) {
	nw := tr.nw
	perm, cdt, B, sink := tr.f.perm, tr.cdt, nw.B, nw.Sink()
	var width L
	for c := range len(width) {
		Tc, Pc := T[min(c, len(T)-1)], blockPower[min(c, len(T)-1)]
		for i, p := range Pc {
			x[perm[i]][c] = float64(cdt[i]*Tc[i]) + p + B[i]
		}
		for i := nw.NDie; i < sink; i++ {
			x[perm[i]][c] = float64(cdt[i]*Tc[i]) + 0 + B[i]
		}
		rb[c] = float64(cdt[sink]*Tc[sink]) + 0 + B[sink]
	}
	return rb
}

// scatterLanes writes the solution in lane c of x, whose border unknown
// is s[c], to the node-order state T[c], as solveBordered does for one.
//
//hotnoc:noalloc
func scatterLanes[L lane](f *BandedLU, x []L, T [][]float64, s [4]float64) {
	for c, Tc := range T {
		for node, p := range f.perm {
			if p >= 0 {
				Tc[node] = x[p][c] - float64(f.y[p]*s[c])
			}
		}
		Tc[f.border] = s[c]
	}
}

// ScheduleEntry is one segment of a piecewise-constant power schedule: the
// chip dissipates Power (per-block watts) for Duration seconds. A migration
// scheme's orbit becomes one entry per leg, its migration window's energy
// folded into the entry's power.
type ScheduleEntry struct {
	Power    []float64
	Duration float64
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
	// allocation-free (power.Leakage.Into satisfies it). dieTemps is the
	// die prefix of the evaluator's node-temperature state, handed over
	// without a copy, so Leak must only read it.
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

// checkFinite returns an error naming the first non-finite entry.
func checkFinite(v []float64) error {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("non-finite temperature (entry %d = %g)", i, x)
		}
	}
	return nil
}
