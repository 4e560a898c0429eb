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
	// t is the node-order solution scratch that keeps SolveInto
	// allocation-free.
	t []float64
}

// NewSteadySolver factorises the network's conductance matrix once using
// the banded ordering.
func NewSteadySolver(nw *Network) (*SteadySolver, error) {
	f, err := FactorBanded(nw.G, nw.Sink(), nw.BandPerm())
	if err != nil {
		return nil, err
	}
	return &SteadySolver{nw: nw, f: f, t: make([]float64, nw.NNodes)}, nil
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
	s.solveNodes(s.t, blockPower)
	copy(dst, s.t[:s.nw.NDie])
}

// SolveFullInto writes the full node temperature vector into dst (NNodes
// entries) without allocating.
//
//hotnoc:noalloc
func (s *SteadySolver) SolveFullInto(dst, blockPower []float64) {
	if len(dst) != s.nw.NNodes {
		panic(fmt.Sprintf("thermal: SolveFullInto dst has %d entries for %d nodes", len(dst), s.nw.NNodes))
	}
	s.solveNodes(dst, blockPower)
}

// solveNodes solves G·T = P + B into dst (NNodes entries), assembling the
// right-hand side straight into the factorisation's banded scratch in the
// network's node layout, as Transient.stepInto does: die nodes carry their
// block power, the other nodes the literal 0 power term of the node-order
// vector this replaces.
//
//hotnoc:noalloc
func (s *SteadySolver) solveNodes(dst, blockPower []float64) {
	nw := s.nw
	if len(blockPower) != nw.NDie {
		panic(fmt.Sprintf("thermal: power map has %d entries for %d blocks", len(blockPower), nw.NDie))
	}
	x, perm, B := s.f.x, s.f.perm, nw.B
	for i, p := range blockPower {
		x[perm[i]] = p + B[i]
	}
	sink := nw.Sink()
	for i := nw.NDie; i < sink; i++ {
		x[perm[i]] = 0 + B[i]
	}
	s.f.solveBordered(dst, 0+B[sink])
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

// PeakTemp returns only the hottest block's temperature for a power map;
// this is the placement objective, kept allocation-free.
//
// Each row's sum is a serial chain of dependent additions, so the rows
// are taken four at a time with one accumulator each: the four chains
// overlap, while every row still adds Ambient and then a*p for j = 0..n-1
// in order, as a row at a time would. The peak is then taken in row
// order, so the result is the same to the bit. A scalar tail takes n mod
// 4 rows. Each product is written float64(a*p), so no GOARCH fuses it
// into the sum.
//
//hotnoc:noalloc
func (inf *Influence) PeakTemp(blockPower []float64) float64 {
	peak := inf.Ambient
	n := inf.N
	p := blockPower[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		r0 := inf.A.A[i*n:][:n]
		r1 := inf.A.A[(i+1)*n:][:n]
		r2 := inf.A.A[(i+2)*n:][:n]
		r3 := inf.A.A[(i+3)*n:][:n]
		t0, t1, t2, t3 := inf.Ambient, inf.Ambient, inf.Ambient, inf.Ambient
		for j, pj := range p {
			t0 += float64(r0[j] * pj)
			t1 += float64(r1[j] * pj)
			t2 += float64(r2[j] * pj)
			t3 += float64(r3[j] * pj)
		}
		if t0 > peak {
			peak = t0
		}
		if t1 > peak {
			peak = t1
		}
		if t2 > peak {
			peak = t2
		}
		if t3 > peak {
			peak = t3
		}
	}
	for ; i < n; i++ {
		row := inf.A.A[i*n:][:n]
		t := inf.Ambient
		for j, a := range row {
			t += float64(a * p[j])
		}
		if t > peak {
			peak = t
		}
	}
	return peak
}
