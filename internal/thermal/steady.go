package thermal

import "fmt"

// SteadySolver solves the steady-state thermal problem G·T = P + B for a
// fixed network, reusing one banded factorisation across any number of
// power maps. This is the hot path of thermally-aware placement, which
// evaluates thousands of candidate mappings. The dense pivoted LU in
// linalg_test.go is the reference implementation; the differential tests
// pin the two paths together.
type SteadySolver struct {
	nw *Network
	f  *BandedLU
	// scratch buffers to keep the Into variants allocation-free.
	p []float64
	t []float64
}

// NewSteadySolver factorises the network's conductance matrix once using
// the banded ordering.
func NewSteadySolver(nw *Network) (*SteadySolver, error) {
	f, err := FactorBanded(nw.G, nw.Sink(), nw.BandPerm())
	if err != nil {
		return nil, err
	}
	return &SteadySolver{
		nw: nw,
		f:  f,
		p:  make([]float64, nw.NNodes),
		t:  make([]float64, nw.NNodes),
	}, nil
}

// Solve returns the steady-state die temperatures (°C) for a per-block
// power map in watts. The returned slice is fresh on every call; hot loops
// use SolveInto.
func (s *SteadySolver) Solve(blockPower []float64) []float64 {
	out := make([]float64, s.nw.NDie)
	s.SolveInto(out, blockPower)
	return out
}

// SolveInto writes the steady-state die temperatures into dst (NDie
// entries) without allocating.
//
//hotnoc:noalloc
func (s *SteadySolver) SolveInto(dst, blockPower []float64) {
	if len(dst) != s.nw.NDie {
		panic(fmt.Sprintf("thermal: SolveInto dst has %d entries for %d blocks", len(dst), s.nw.NDie))
	}
	s.solveNodes(blockPower)
	copy(dst, s.t[:s.nw.NDie])
}

// SolveFull returns the full node temperature vector, including spreader
// and sink nodes, for diagnostics.
func (s *SteadySolver) SolveFull(blockPower []float64) []float64 {
	out := make([]float64, s.nw.NNodes)
	s.SolveFullInto(out, blockPower)
	return out
}

// SolveFullInto writes the full node temperature vector into dst (NNodes
// entries) without allocating.
//
//hotnoc:noalloc
func (s *SteadySolver) SolveFullInto(dst, blockPower []float64) {
	if len(dst) != s.nw.NNodes {
		panic(fmt.Sprintf("thermal: SolveFullInto dst has %d entries for %d nodes", len(dst), s.nw.NNodes))
	}
	s.solveNodes(blockPower)
	copy(dst, s.t)
}

//hotnoc:noalloc
func (s *SteadySolver) solveNodes(blockPower []float64) {
	s.nw.powerVector(s.p, blockPower)
	for i := range s.p {
		s.p[i] += s.nw.B[i]
	}
	s.f.Solve(s.t, s.p)
}

// Influence is the precomputed linear thermal operator of a network:
//
//	T_die = Ambient + A · P_die
//
// A[i][j] is the temperature rise at die block i per watt dissipated in die
// block j. Because the conductance matrix is symmetric (thermal
// reciprocity), A is symmetric. Placement uses A to evaluate the peak
// temperature of a candidate mapping in O(n²) with no linear solve.
type Influence struct {
	N int
	A *Dense
	// Ambient is the paper's 40 °C boundary temperature.
	Ambient float64
}

// NewInfluence computes the influence matrix with one batched multi-RHS
// solve: the right-hand-side block is the identity over die nodes (one
// unit power impulse per column) plus the ambient boundary, so a single
// factorisation and one banded sweep replace n sequential solves.
func NewInfluence(nw *Network) (*Influence, error) {
	f, err := FactorBanded(nw.G, nw.Sink(), nw.BandPerm())
	if err != nil {
		return nil, err
	}
	n := nw.NDie
	nn := nw.NNodes
	rhs := make([]float64, nn*n)
	for i := 0; i < nn; i++ {
		bi := nw.B[i]
		row := rhs[i*n : (i+1)*n]
		for j := range row {
			row[j] = bi
		}
	}
	for j := 0; j < n; j++ {
		rhs[j*n+j]++
	}
	f.SolveBatch(rhs, rhs, n)
	inf := &Influence{N: n, A: NewDense(n), Ambient: nw.Par.AmbientC}
	for i := 0; i < n; i++ {
		row := rhs[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			inf.A.Set(i, j, row[j]-nw.Par.AmbientC)
		}
	}
	return inf, nil
}

// Temps returns die temperatures for a power map via the influence matrix.
func (inf *Influence) Temps(blockPower []float64) []float64 {
	if len(blockPower) != inf.N {
		panic(fmt.Sprintf("thermal: power map has %d entries for %d blocks",
			len(blockPower), inf.N))
	}
	out := make([]float64, inf.N)
	inf.A.MulVec(out, blockPower)
	for i := range out {
		out[i] += inf.Ambient
	}
	return out
}

// PeakTemp returns only the hottest block's temperature for a power map;
// this is the placement objective, kept allocation-free.
//
//hotnoc:noalloc
func (inf *Influence) PeakTemp(blockPower []float64) float64 {
	peak := inf.Ambient
	n := inf.N
	for i := 0; i < n; i++ {
		row := inf.A.A[i*n : (i+1)*n]
		t := inf.Ambient
		for j, a := range row {
			t += a * blockPower[j]
		}
		if t > peak {
			peak = t
		}
	}
	return peak
}
