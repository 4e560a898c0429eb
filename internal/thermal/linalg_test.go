package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The dense pivoted LU below is the test oracle for the banded
// factorisation that serves every production solve: it makes no
// structural assumption about the matrix, so the differential tests in
// banded_test.go hold FactorBanded to it.

// LU holds an LU factorisation with partial pivoting (Doolittle form, L
// unit-diagonal, stored in place). The scratch vector makes Solve
// allocation-free, so an LU must not be shared between goroutines.
type LU struct {
	n    int
	lu   []float64
	piv  []int
	sign int
	x    []float64
}

// Factor computes the LU factorisation of m. It returns an error if the
// matrix is singular to working precision, which for a thermal network
// indicates a node with no path to ambient.
func Factor(m *Dense) (*LU, error) {
	n := m.N
	f := &LU{n: n, lu: append([]float64(nil), m.A...), piv: make([]int, n), sign: 1,
		x: make([]float64, n)}
	for i := range f.piv {
		f.piv[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot: find the largest magnitude in this column.
		p, max := col, math.Abs(f.lu[col*n+col])
		for r := col + 1; r < n; r++ {
			if a := math.Abs(f.lu[r*n+col]); a > max {
				p, max = r, a
			}
		}
		if max == 0 {
			return nil, fmt.Errorf("thermal: singular system (pivot column %d); some node has no path to ambient", col)
		}
		if p != col {
			for j := 0; j < n; j++ {
				f.lu[p*n+j], f.lu[col*n+j] = f.lu[col*n+j], f.lu[p*n+j]
			}
			f.piv[p], f.piv[col] = f.piv[col], f.piv[p]
			f.sign = -f.sign
		}
		pivVal := f.lu[col*n+col]
		for r := col + 1; r < n; r++ {
			l := f.lu[r*n+col] / pivVal
			f.lu[r*n+col] = l
			if l == 0 {
				continue
			}
			for j := col + 1; j < n; j++ {
				f.lu[r*n+j] -= l * f.lu[col*n+j]
			}
		}
	}
	return f, nil
}

// Solve solves M·x = b into dst. dst and b may alias.
func (f *LU) Solve(dst, b []float64) {
	if len(dst) != f.n || len(b) != f.n {
		panic("thermal: Solve dimension mismatch")
	}
	n := f.n
	// Apply the pivot permutation.
	x := f.x
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		s := x[i]
		row := f.lu[i*n : i*n+i]
		for j, l := range row {
			s -= l * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		x[i] = s / f.lu[i*n+i]
	}
	copy(dst, x)
}

func TestLUSolvesKnownSystem(t *testing.T) {
	// 3x3 system with known solution x = (1, -2, 3).
	m := NewDense(3)
	rows := [][]float64{
		{4, 1, 0},
		{1, 5, 2},
		{0, 2, 6},
	}
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	want := []float64{1, -2, 3}
	b := make([]float64, 3)
	m.MulVec(b, want)
	lu, err := Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 3)
	lu.Solve(x, b)
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

// TestLUResidualProperty property-checks the factorisation on random
// diagonally dominant systems (the class the thermal stamps produce):
// solving then multiplying back must reproduce the right-hand side.
func TestLUResidualProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw%20)
		r := rand.New(rand.NewSource(seed))
		m := NewDense(n)
		for i := 0; i < n; i++ {
			rowSum := 0.0
			for j := 0; j < n; j++ {
				if i != j {
					v := r.Float64()*2 - 1
					m.Set(i, j, v)
					rowSum += math.Abs(v)
				}
			}
			m.Set(i, i, rowSum+1+r.Float64())
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.Float64()*20 - 10
		}
		lu, err := Factor(m)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		lu.Solve(x, b)
		back := make([]float64, n)
		m.MulVec(back, x)
		return vecMaxAbsDiff(back, b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFactorRejectsSingular(t *testing.T) {
	m := NewDense(2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4) // rank 1
	if _, err := Factor(m); err == nil {
		t.Fatal("Factor accepted a singular matrix")
	}
}

func TestSolveAliasing(t *testing.T) {
	m := NewDense(2)
	m.Set(0, 0, 2)
	m.Set(1, 1, 4)
	lu, err := Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{2, 8}
	lu.Solve(v, v) // dst aliases b
	if v[0] != 1 || v[1] != 2 {
		t.Fatalf("aliased solve got %v, want [1 2]", v)
	}
}

func TestPivotingHandlesZeroDiagonal(t *testing.T) {
	// Requires a row swap to factor.
	m := NewDense(2)
	m.Set(0, 0, 0)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 0)
	lu, err := Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	lu.Solve(x, []float64{3, 7})
	if math.Abs(x[0]-7) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("got %v, want [7 3]", x)
	}
}

func TestMulVecDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension panic")
		}
	}()
	NewDense(3).MulVec(make([]float64, 2), make([]float64, 3))
}
