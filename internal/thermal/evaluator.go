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
	// dt a client sends). RunCycle overwrites the integrator state before
	// use, so reuse is exact.
	tr *Transient
	sc *cycleScratch
}

// cycleScratch holds the per-evaluator buffers that make RunCycle
// allocation-free: die-sized power/leak/average maps and node-sized
// ping-pong state vectors. Lazily built on the first cycle evaluation.
type cycleScratch struct {
	avg       []float64 // time-averaged power map, NDie
	withLeak  []float64 // warm-start power map with leakage folded in, NDie
	leak      []float64 // leakage power map, NDie
	power     []float64 // per-step power map, NDie
	state     []float64 // warm-start fixed-point state, NNodes
	stateNext []float64
	prev      []float64 // repetition-start state for convergence checks, NNodes
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

func (ev *Evaluator) scratch() *cycleScratch {
	if ev.sc == nil {
		n, nn := ev.nw.NDie, ev.nw.NNodes
		ev.sc = &cycleScratch{
			avg:       make([]float64, n),
			withLeak:  make([]float64, n),
			leak:      make([]float64, n),
			power:     make([]float64, n),
			state:     make([]float64, nn),
			stateNext: make([]float64, nn),
			prev:      make([]float64, nn),
		}
	}
	return ev.sc
}

// Steady returns the cached steady-state solver.
func (ev *Evaluator) Steady() *SteadySolver { return ev.ss }

// Transient returns the integrator for step dt: the cached one when the
// previous request used the same step, otherwise a new one whose
// iteration matrix is factorised here and which replaces the cache. The
// integrator's state persists between calls; callers that need a defined
// starting point must Reset or SetState it (RunCycle always does).
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
