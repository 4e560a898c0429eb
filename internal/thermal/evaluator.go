package thermal

// Evaluator amortises the expensive linear-algebra setup of thermal
// evaluation across many solves on one network: the steady-state LU
// factorisation is computed once, and each backward-Euler iteration matrix
// is factorised once per distinct step size and then reused by every
// subsequent cycle integration. A sweep that evaluates many schedules on
// the same chip pays for factorisation once instead of per evaluation.
//
// An Evaluator (like the Transient and SteadySolver it wraps) holds
// mutable scratch state and must not be shared between goroutines;
// concurrent sweeps give each worker its own Evaluator over the shared,
// read-only Network.
type Evaluator struct {
	nw *Network
	ss *SteadySolver
	// trans caches one integrator per step size. RunCycle overwrites the
	// integrator state before use, so reuse is exact.
	trans map[float64]*Transient
	sc    *cycleScratch
}

// cycleScratch holds the per-evaluator buffers that make RunCycle
// allocation-free: die-sized power/leak/average maps and node-sized
// ping-pong state vectors. Lazily built on the first cycle evaluation.
type cycleScratch struct {
	avg       []float64 // time-averaged power map, NDie
	withLeak  []float64 // warm-start power map with leakage folded in, NDie
	die       []float64 // die-layer temperatures, NDie
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
	return &Evaluator{nw: nw, ss: ss, trans: map[float64]*Transient{}}, nil
}

func (ev *Evaluator) scratch() *cycleScratch {
	if ev.sc == nil {
		n, nn := ev.nw.NDie, ev.nw.NNodes
		ev.sc = &cycleScratch{
			avg:       make([]float64, n),
			withLeak:  make([]float64, n),
			die:       make([]float64, n),
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

// Transient returns the cached integrator for step dt, factorising the
// iteration matrix on first use. The integrator's state persists between
// calls; callers that need a defined starting point must Reset or SetState
// it (RunCycle always does).
func (ev *Evaluator) Transient(dt float64) (*Transient, error) {
	if tr, ok := ev.trans[dt]; ok {
		return tr, nil
	}
	lu, err := factorStep(ev.nw, dt)
	if err != nil {
		return nil, err
	}
	tr := newTransient(ev.nw, dt, lu)
	ev.trans[dt] = tr
	return tr, nil
}
