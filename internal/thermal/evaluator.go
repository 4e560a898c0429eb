package thermal

// Evaluator amortises the expensive linear-algebra setup of thermal
// evaluation across many solves on one network: the steady-state LU
// factorisation is computed once, and the backward-Euler iteration matrix
// of the current step size is factorised once and then reused by every
// subsequent cycle integration at that step. A sweep that evaluates many
// schedules on the same chip pays for factorisation once instead of per
// evaluation.
//
// An Evaluator (like the Transient and SteadySolver it wraps) holds
// mutable scratch state and must not be shared between goroutines; its
// results do not depend on what it ran before, so concurrent callers
// take turns with a free list of Evaluators over one Network.
type Evaluator struct {
	nw *Network
	ss *SteadySolver
	// tr is the integrator of the most recently requested step size; a
	// different step replaces it. Keeping one bounds the evaluator's
	// memory when callers choose the step (a long-lived daemon serves any
	// dt a client sends). The integrator holds no temperature state, so
	// reuse is exact.
	tr *Transient
	sc *laneScratch
}

// laneScratch holds the per-evaluator buffers that keep lockstep runs
// allocation-free apart from their results: WarmStart's and
// RunCycleSet's power maps and states, and up to MaxStates lanes, each
// with StepLanes' buffers and the cursor RunCycleSet keeps on it. Lazily
// built; lanes get their buffers the first time a set needs them.
type laneScratch struct {
	avg       []float64 // RunCycleSet's time-averaged power map, NDie
	leak      []float64 // WarmStart's leakage, NDie
	withLeak  []float64 // WarmStart's power map with leakage folded in, NDie
	state     []float64 // WarmStart's fixed-point state, NNodes
	stateNext []float64
	lanes     [MaxStates]runLane
	cycles    [MaxStates]cycleRun
	ready     int // lanes with buffers
}

// NewEvaluator factorises the network's steady-state system once and
// returns an evaluator ready to run any number of cycle evaluations.
func NewEvaluator(nw *Network) (*Evaluator, error) {
	ss, err := NewSteadySolver(nw)
	if err != nil {
		return nil, err
	}
	return &Evaluator{nw: nw, ss: ss}, nil
}

// scratch returns the evaluator's lane scratch with buffers for at
// least k lanes, in one allocation per growth: the warm start's buffers
// and the lanes asked for on first use, further lanes when a set first
// needs them, so an evaluator that runs only lone runs carries one lane.
func (ev *Evaluator) scratch(k int) *laneScratch {
	n, nn := ev.nw.NDie, ev.nw.NNodes
	if ev.sc == nil {
		ev.sc = &laneScratch{}
	}
	sc := ev.sc
	if sc.avg != nil && sc.ready >= k {
		return sc
	}
	size := (k - sc.ready) * (2*nn + 2*n)
	if sc.avg == nil {
		size += 3*n + 2*nn
	}
	buf := make([]float64, size)
	take := func(m int) []float64 {
		v := buf[:m:m]
		buf = buf[m:]
		return v
	}
	if sc.avg == nil {
		sc.avg, sc.leak, sc.withLeak = take(n), take(n), take(n)
		sc.state, sc.stateNext = take(nn), take(nn)
	}
	for ; sc.ready < k; sc.ready++ {
		ln := &sc.lanes[sc.ready]
		ln.T, ln.leak, ln.power = take(nn), take(n), take(n)
		sc.cycles[sc.ready].prev = take(nn)
	}
	return sc
}

// Transient returns the integrator for step dt: the cached one when the
// previous request used the same step, otherwise a new one whose
// iteration matrix is factorised here and which replaces the cache.
// The integrator holds no temperature state, so callers sharing it step
// states of their own.
func (ev *Evaluator) Transient(dt float64) (*Transient, error) {
	if ev.tr != nil && ev.tr.dt == dt {
		return ev.tr, nil
	}
	tr, err := NewTransient(ev.nw, dt)
	if err != nil {
		return nil, err
	}
	ev.tr = tr
	return tr, nil
}
