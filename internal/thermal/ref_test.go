package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hotnoc/internal/floorplan"
	"hotnoc/internal/geom"
)

// This file freezes the banded kernels as they stood before the row-run
// layout: the factorisation over a cloned, diagonally shifted dense
// matrix, forward and back sweeps that test every in-band factor for zero
// with band index arithmetic per element, a gather/scatter Solve, and a
// backward-Euler Step that expands the power map to a node-order vector
// and divides C[i] by dt on every step. The production kernels must
// reproduce it bit for bit. It exists only as a differential oracle:
// never edit it to make a test pass.

type refBandedLU struct {
	n, nb, k, stride, border int
	perm                     []int
	ab, bcol, y              []float64
	schur                    float64
	x, xm, acc               []float64
}

func refFactorBanded(t testing.TB, m *Dense, border int, perm []int) *refBandedLU {
	t.Helper()
	n := m.N
	nb := n - 1
	k := 0
	for i := 0; i < n; i++ {
		if i == border {
			continue
		}
		for j := i + 1; j < n; j++ {
			if j == border || m.At(i, j) == 0 {
				continue
			}
			if w := perm[j] - perm[i]; w > k {
				k = w
			} else if -w > k {
				k = -w
			}
		}
	}
	f := &refBandedLU{
		n: n, nb: nb, k: k, stride: 2*k + 1, border: border,
		perm: append([]int(nil), perm...),
		ab:   make([]float64, nb*(2*k+1)),
		bcol: make([]float64, nb),
		y:    make([]float64, nb),
		x:    make([]float64, nb),
	}
	for i := 0; i < n; i++ {
		if i == border {
			continue
		}
		pi := perm[i]
		f.ab[pi*f.stride+k] = m.At(i, i)
		f.bcol[pi] = m.At(i, border)
		for j := i + 1; j < n; j++ {
			if j == border {
				continue
			}
			if v := m.At(i, j); v != 0 {
				pj := perm[j]
				f.ab[pi*f.stride+(pj-pi+k)] = v
				f.ab[pj*f.stride+(pi-pj+k)] = v
			}
		}
	}
	for col := 0; col < nb; col++ {
		piv := f.ab[col*f.stride+k]
		if !(piv > 0) {
			t.Fatalf("ref: non-positive pivot %g at banded column %d", piv, col)
		}
		rmax := col + k
		if rmax > nb-1 {
			rmax = nb - 1
		}
		pivRow := f.ab[col*f.stride:]
		for r := col + 1; r <= rmax; r++ {
			rRow := f.ab[r*f.stride:]
			d := col - r + k
			l := rRow[d] / piv
			rRow[d] = l
			if l == 0 {
				continue
			}
			for cc := 1; cc <= rmax-col; cc++ {
				rRow[d+cc] -= l * pivRow[k+cc]
			}
		}
	}
	copy(f.y, f.bcol)
	f.solveSingle(f.y)
	acc := 0.0
	for i, b := range f.bcol {
		if b != 0 {
			acc += b * f.y[i]
		}
	}
	f.schur = m.At(border, border) - acc
	return f
}

func (f *refBandedLU) solveSingle(x []float64) {
	nb, k, stride := f.nb, f.k, f.stride
	for i := 1; i < nb; i++ {
		lo := i - k
		if lo < 0 {
			lo = 0
		}
		row := f.ab[i*stride:]
		s := x[i]
		for j := lo; j < i; j++ {
			if l := row[j-i+k]; l != 0 {
				s -= l * x[j]
			}
		}
		x[i] = s
	}
	for i := nb - 1; i >= 0; i-- {
		hi := i + k
		if hi > nb-1 {
			hi = nb - 1
		}
		row := f.ab[i*stride:]
		s := x[i]
		for j := i + 1; j <= hi; j++ {
			if u := row[j-i+k]; u != 0 {
				s -= u * x[j]
			}
		}
		x[i] = s / row[k]
	}
}

func (f *refBandedLU) solveCols(x []float64, ncols int) {
	nb, k, stride := f.nb, f.k, f.stride
	for i := 1; i < nb; i++ {
		lo := i - k
		if lo < 0 {
			lo = 0
		}
		row := f.ab[i*stride : i*stride+k]
		xi := x[i*ncols : (i+1)*ncols]
		for j := lo; j < i; j++ {
			l := row[j-i+k]
			if l == 0 {
				continue
			}
			xj := x[j*ncols : (j+1)*ncols]
			for c := range xi {
				xi[c] -= l * xj[c]
			}
		}
	}
	for i := nb - 1; i >= 0; i-- {
		hi := i + k
		if hi > nb-1 {
			hi = nb - 1
		}
		row := f.ab[i*stride:]
		xi := x[i*ncols : (i+1)*ncols]
		for j := i + 1; j <= hi; j++ {
			u := row[j-i+k]
			if u == 0 {
				continue
			}
			xj := x[j*ncols : (j+1)*ncols]
			for c := range xi {
				xi[c] -= u * xj[c]
			}
		}
		piv := row[k]
		for c := range xi {
			xi[c] /= piv
		}
	}
}

func (f *refBandedLU) Solve(dst, b []float64) {
	x := f.x
	for node, p := range f.perm {
		if p >= 0 {
			x[p] = b[node]
		}
	}
	rb := b[f.border]
	f.solveSingle(x)
	acc := 0.0
	for i, bc := range f.bcol {
		if bc != 0 {
			acc += bc * x[i]
		}
	}
	s := (rb - acc) / f.schur
	for node, p := range f.perm {
		if p >= 0 {
			dst[node] = x[p] - f.y[p]*s
		}
	}
	dst[f.border] = s
}

func (f *refBandedLU) SolveBatch(dst, rhs []float64, ncols int) {
	if cap(f.xm) < f.nb*ncols {
		f.xm = make([]float64, f.nb*ncols)
	}
	if cap(f.acc) < 2*ncols {
		f.acc = make([]float64, 2*ncols)
	}
	x := f.xm[:f.nb*ncols]
	acc := f.acc[:ncols]
	s := f.acc[ncols : 2*ncols]
	for node, p := range f.perm {
		if p >= 0 {
			copy(x[p*ncols:(p+1)*ncols], rhs[node*ncols:(node+1)*ncols])
		}
	}
	rb := rhs[f.border*ncols : (f.border+1)*ncols]
	for c := range acc {
		acc[c] = 0
	}
	f.solveCols(x, ncols)
	for i, bc := range f.bcol {
		if bc == 0 {
			continue
		}
		xi := x[i*ncols : (i+1)*ncols]
		for c := range acc {
			acc[c] += bc * xi[c]
		}
	}
	for c := range s {
		s[c] = (rb[c] - acc[c]) / f.schur
	}
	for node, p := range f.perm {
		if p < 0 {
			continue
		}
		di := dst[node*ncols : (node+1)*ncols]
		xi := x[p*ncols : (p+1)*ncols]
		yp := f.y[p]
		for c := range di {
			di[c] = xi[c] - yp*s[c]
		}
	}
	copy(dst[f.border*ncols:(f.border+1)*ncols], s)
}

// refPowerVector expands a per-block power map to the node-order vector.
func refPowerVector(dst, blockPower []float64) {
	for i := range dst {
		dst[i] = 0
	}
	copy(dst, blockPower)
}

type refTransient struct {
	nw      *Network
	dt      float64
	f       *refBandedLU
	T       []float64
	Time    float64
	rhs, pv []float64
}

func newRefTransient(t testing.TB, nw *Network, dt float64) *refTransient {
	m := nw.G.Clone()
	for i := 0; i < nw.NNodes; i++ {
		m.Add(i, i, nw.C[i]/dt)
	}
	tr := &refTransient{
		nw: nw, dt: dt,
		f:   refFactorBanded(t, m, nw.Sink(), nw.BandPerm()),
		T:   make([]float64, nw.NNodes),
		rhs: make([]float64, nw.NNodes),
		pv:  make([]float64, nw.NNodes),
	}
	for i := range tr.T {
		tr.T[i] = nw.Par.AmbientC
	}
	return tr
}

func (tr *refTransient) Step(blockPower []float64) {
	refPowerVector(tr.pv, blockPower)
	for i := range tr.rhs {
		tr.rhs[i] = tr.nw.C[i]/tr.dt*tr.T[i] + tr.pv[i] + tr.nw.B[i]
	}
	tr.f.Solve(tr.T, tr.rhs)
	tr.Time += tr.dt
}

// refSteadyFull is the frozen SteadySolver.SolveFullInto.
func refSteadyFull(nw *Network, f *refBandedLU, dst, blockPower []float64) {
	p := make([]float64, nw.NNodes)
	refPowerVector(p, blockPower)
	for i := range p {
		p[i] += nw.B[i]
	}
	f.Solve(dst, p)
}

// refMeshes spans square and non-square meshes from 1×1 to 8×8,
// including single rows and columns.
var refMeshes = [][2]int{{1, 1}, {1, 8}, {8, 1}, {2, 2}, {2, 5}, {3, 2}, {3, 7}, {4, 4}, {5, 5}, {6, 4}, {7, 3}, {8, 8}}

func refMesh(t testing.TB, wh [2]int) *Network {
	t.Helper()
	nw, err := NewNetwork(floorplan.NewMesh(geom.NewGrid(wh[0], wh[1])), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// firstBitDiff returns the first index where a and b differ in their IEEE-754
// bits, or -1.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestStepMatchesRef integrates 20 000 leakage-coupled backward-Euler steps
// on every reference mesh — the power map switching between three random
// maps every 100 steps, as a migration orbit does — and asserts that
// StepStates of one state leaves it bitwise identical to the frozen
// kernel's state after every step.
func TestStepMatchesRef(t *testing.T) {
	const steps = 20000
	r := rand.New(rand.NewSource(20))
	for mi, wh := range refMeshes {
		nw := refMesh(t, wh)
		dt := []float64{2e-6, 5e-6, 10e-6}[mi%3]
		tr, err := NewTransient(nw, dt)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefTransient(t, nw, dt)
		base := make([][]float64, 3)
		for k := range base {
			base[k] = make([]float64, nw.NDie)
			for i := range base[k] {
				base[k][i] = r.Float64() * 2
			}
		}
		leak := func(dst, die []float64) {
			for i, d := range die {
				dst[i] = 0.02 * math.Exp(0.017*(d-40))
			}
		}
		pw, rpw := make([]float64, nw.NDie), make([]float64, nw.NDie)
		lk, rlk := make([]float64, nw.NDie), make([]float64, nw.NDie)
		T := ambientState(nw)
		Ts, Ps := [][]float64{T}, [][]float64{pw}
		for s := 0; s < steps; s++ {
			b := base[(s/100)%len(base)]
			leak(lk, T[:nw.NDie])
			leak(rlk, ref.T[:nw.NDie])
			for i := range pw {
				pw[i] = b[i] + lk[i]
				rpw[i] = b[i] + rlk[i]
			}
			tr.StepStates(Ts, Ps)
			ref.Step(rpw)
			if i := firstBitDiff(T, ref.T); i >= 0 {
				t.Fatalf("%dx%d dt=%g step %d: node %d = %v, frozen kernel %v",
					wh[0], wh[1], dt, s, i, T[i], ref.T[i])
			}
		}
	}
}

// TestSteadyMatchesRef: SolveFullInto and SolveInto are bitwise identical
// to the frozen steady solve on every reference mesh.
func TestSteadyMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, wh := range refMeshes {
		nw := refMesh(t, wh)
		ss, err := NewSteadySolver(nw)
		if err != nil {
			t.Fatal(err)
		}
		ref := refFactorBanded(t, nw.G, nw.Sink(), nw.BandPerm())
		full, want := make([]float64, nw.NNodes), make([]float64, nw.NNodes)
		die := make([]float64, nw.NDie)
		p := make([]float64, nw.NDie)
		for trial := 0; trial < 20; trial++ {
			for i := range p {
				p[i] = r.Float64() * 3
			}
			ss.SolveFullInto(full, p)
			refSteadyFull(nw, ref, want, p)
			if i := firstBitDiff(full, want); i >= 0 {
				t.Fatalf("%dx%d trial %d: SolveFullInto node %d = %v, frozen kernel %v",
					wh[0], wh[1], trial, i, full[i], want[i])
			}
			ss.SolveInto(die, p)
			if i := firstBitDiff(die, want[:nw.NDie]); i >= 0 {
				t.Fatalf("%dx%d trial %d: SolveInto block %d = %v, frozen kernel %v",
					wh[0], wh[1], trial, i, die[i], want[i])
			}
		}
	}
}

// TestSolveBatchMatchesRef: every column of a production SolveBatch is
// bitwise identical to a frozen single Solve of that column, and so is a
// production Solve. The blocks include the influence-matrix right-hand
// side (identity over die nodes plus the ambient boundary), whose many
// exact zeros exercise the skipped factors, on both the conductance
// matrix and a backward-Euler iteration matrix.
func TestSolveBatchMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for _, wh := range refMeshes {
		nw := refMesh(t, wh)
		for _, dt := range []float64{0, 5e-6} {
			var f *BandedLU
			var ref *refBandedLU
			if dt == 0 {
				var err error
				if f, err = FactorBanded(nw.G, nw.Sink(), nw.BandPerm()); err != nil {
					t.Fatal(err)
				}
				ref = refFactorBanded(t, nw.G, nw.Sink(), nw.BandPerm())
			} else {
				tr, err := NewTransient(nw, dt)
				if err != nil {
					t.Fatal(err)
				}
				f, ref = tr.f, newRefTransient(t, nw, dt).f
			}
			nn := nw.NNodes
			for _, ncols := range []int{1, 2, 7, nw.NDie, nn} {
				for _, influence := range []bool{false, true} {
					if influence && ncols != nw.NDie {
						continue
					}
					name := fmt.Sprintf("%dx%d dt=%g ncols=%d influence=%v", wh[0], wh[1], dt, ncols, influence)
					rhs := make([]float64, nn*ncols)
					for i := range rhs {
						if influence {
							rhs[i] = nw.B[i/ncols]
						} else {
							rhs[i] = r.Float64()*10 - 1
						}
					}
					if influence {
						for j := 0; j < ncols; j++ {
							rhs[j*ncols+j]++
						}
					}
					dst := make([]float64, len(rhs))
					f.SolveBatch(dst, rhs, ncols)
					refDst := make([]float64, len(rhs))
					ref.SolveBatch(refDst, rhs, ncols)
					if i := firstBitDiff(dst, refDst); i >= 0 {
						t.Fatalf("%s: entry %d = %v, frozen batch %v", name, i, dst[i], refDst[i])
					}
					col, want := make([]float64, nn), make([]float64, nn)
					for c := 0; c < ncols; c++ {
						for i := 0; i < nn; i++ {
							col[i] = rhs[i*ncols+c]
						}
						ref.Solve(want, col)
						for i := 0; i < nn; i++ {
							if math.Float64bits(dst[i*ncols+c]) != math.Float64bits(want[i]) {
								t.Fatalf("%s col %d: node %d = %v, frozen single solve %v",
									name, c, i, dst[i*ncols+c], want[i])
							}
						}
						f.Solve(col, col)
						if i := firstBitDiff(col, want); i >= 0 {
							t.Fatalf("%s col %d: Solve node %d = %v, frozen single solve %v",
								name, c, i, col[i], want[i])
						}
					}
				}
			}
		}
	}
}

// refPeakTemp is Influence.PeakTemp as it stood before the rows were
// interleaved: one row at a time, one serial add chain per row.
func refPeakTemp(inf *Influence, blockPower []float64) float64 {
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

// TestPeakTempMatchesRef: the four-row PeakTemp returns the frozen
// row-at-a-time peak to the bit on square meshes of 9, 16, 25 and 36
// blocks and on every reference mesh, so every remainder of n mod 4
// takes the scalar tail, for random power maps, maps with a single hot
// block (so the peak falls in each lane and in the tail), and a map of
// zeros.
func TestPeakTempMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	meshes := append([][2]int{{3, 3}, {4, 4}, {5, 5}, {6, 6}}, refMeshes...)
	for _, wh := range meshes {
		inf, err := NewInfluence(refMesh(t, wh))
		if err != nil {
			t.Fatal(err)
		}
		p := make([]float64, inf.N)
		check := func(what string) {
			t.Helper()
			if got, want := inf.PeakTemp(p), refPeakTemp(inf, p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%dx%d %s: PeakTemp = %v, frozen row-at-a-time %v", wh[0], wh[1], what, got, want)
			}
		}
		check("zero map")
		for trial := 0; trial < 50; trial++ {
			for i := range p {
				p[i] = r.Float64() * 3
			}
			check("random map")
		}
		for hot := range p {
			for i := range p {
				p[i] = 0.1 * r.Float64()
			}
			p[hot] = 5
			check(fmt.Sprintf("block %d hot", hot))
		}
	}
}
