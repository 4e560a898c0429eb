// Package thermal implements a HotSpot-style compact thermal model for NoC
// floorplans: every floorplan block becomes a node in an equivalent RC
// circuit with lateral resistances to its neighbours and a vertical path
// through a copper heat spreader and heat sink to the 40 °C ambient, exactly
// the modelling approach of the HotSpot library the paper uses. The package
// provides a steady-state solver (for static placements and the
// thermal-influence matrix used by placement), and a backward-Euler
// transient solver (for the migration thermal cycles).
package thermal

import (
	"fmt"
	"math"
)

// Dense is a square dense matrix stored row-major: the assembled
// conductance matrix (Network.G) and the influence matrix (Influence.A).
// The thermal systems are tiny (two nodes per block plus one sink node: 33
// for a 4x4 chip, 51 for a 5x5); solves go through the banded
// factorisation in banded.go.
type Dense struct {
	N int
	A []float64
}

// NewDense returns an n x n zero matrix.
func NewDense(n int) *Dense {
	if n <= 0 {
		panic(fmt.Sprintf("thermal: invalid matrix size %d", n))
	}
	return &Dense{N: n, A: make([]float64, n*n)}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.A[i*m.N+j] }

// Set writes element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.A[i*m.N+j] = v }

// Add accumulates v into element (i, j).
func (m *Dense) Add(i, j int, v float64) { m.A[i*m.N+j] += v }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.N)
	copy(c.A, m.A)
	return c
}

// MulVec computes dst = M · x. dst and x must not alias.
func (m *Dense) MulVec(dst, x []float64) {
	if len(dst) != m.N || len(x) != m.N {
		panic("thermal: MulVec dimension mismatch")
	}
	for i := 0; i < m.N; i++ {
		s := 0.0
		row := m.A[i*m.N : (i+1)*m.N]
		for j, a := range row {
			s += a * x[j]
		}
		dst[i] = s
	}
}

// vecMaxAbsDiff returns max_i |a[i]-b[i]|, the convergence metric for the
// transient solver's quasi-steady detection.
func vecMaxAbsDiff(a, b []float64) float64 {
	max := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}
