package thermal

import (
	"fmt"
	"math"
)

// This file implements the structure-exploiting solver that serves every
// hot-path solve in the package. The RC network of a W×H floorplan is
// physically a grid: each die node couples to at most four lateral
// neighbours plus its own spreader node, each spreader node to its lateral
// neighbours, its die node and the lumped sink. Ordering the nodes so die
// and spreader cells interleave (die i ↦ 2i, spreader i ↦ 2i+1) makes the
// conductance matrix G — and every backward-Euler iteration matrix
// C/dt + G, which differs only on the diagonal — banded with half
// bandwidth ~2·W, except for the single dense sink row/column, which is
// handled as a bordered block. Factorisation then costs O(n·k²) instead of
// the dense O(n³) and each solve O(n·k) instead of O(n²).
//
// Row runs: fill-in during elimination stays inside each row's envelope,
// but some in-band factors are still exactly zero (mostly in the first
// grid row, before fill reaches them). A solve must skip those, as the
// straightforward band sweep does, so that its floating-point operations
// are the same ones in the same order. Instead of testing every in-band
// factor on every solve, FactorBanded records once, per row, the runs of
// consecutive non-zero L and U entries as column ranges over the factored
// band (lrun, urun). The sweeps then walk those runs with no zero test and
// no per-element band index arithmetic. Invariant: for every right-hand
// side, a sweep performs exactly the subtractions of the zero-skipping
// band sweep — same operands, same order (ascending column within a row),
// same final division by the pivot — so the result is bitwise identical.
// internal/thermal/ref_test.go holds the production kernels to the frozen
// band sweeps bit for bit.
//
// Stability without pivoting: the matrices are symmetric and (weakly)
// diagonally dominant with positive diagonal — every off-diagonal entry is
// the negative of a physical conductance also added to both diagonals, and
// the ambient coupling adds a strict surplus on the sink row — so they are
// positive semi-definite, and positive definite exactly when every node
// has a path to ambient. For this class, LU factorisation without
// pivoting is backward stable (Golub & Van Loan §4.1.1); FactorBanded
// asserts the properties at factor time and reports a zero/negative pivot
// as the physical "no path to ambient" singularity, exactly like the dense
// reference LU the tests hold it to (linalg_test.go).

// BandedLU is the factorisation of a symmetric diagonally-dominant matrix
// that is banded under a node permutation except for one dense border
// row/column (the lumped heat-sink node). It supports single and batched
// multi-RHS solves; it carries scratch state and must not be shared
// between goroutines.
type BandedLU struct {
	n      int   // full order, banded block plus the border node
	nb     int   // banded block order
	k      int   // half bandwidth of the banded block
	border int   // node index of the dense border row/column
	perm   []int // perm[node] = banded position; perm[border] = -1 (the caller's, read-only)

	// ab is the factored band in row-major band storage with row stride
	// 2k+1: entry (i, j) of the banded block lives at ab[i*2k + k + j], so
	// ab[i*2k+k:] is row i indexed by column. After FactorBanded it holds
	// unit-diagonal L below and U on and above the diagonal.
	ab []float64
	// lrun and urun locate the non-zero factors. lrun covers rows
	// 1..nb-1 in forward-sweep order, urun rows nb-1..0 in back-sweep
	// order; each row contributes the number of its runs of consecutive
	// non-zero L (lrun) or strictly-upper U (urun) entries, then each run
	// as a half-open column range [a, b). Both are views of one allocation.
	lrun, urun []int32
	// bcol is the border coupling column b (banded order), y = A⁻¹·b, and
	// schur = d - bᵀ·y the Schur complement of the border node, so a solve
	// against [[A, b], [bᵀ, d]] is two banded sweeps plus rank-one fixup.
	bcol  []float64
	y     []float64
	schur float64

	x  []float64    // single-RHS scratch, banded order
	x2 [][2]float64 // two-column lockstep scratch, banded order, made on first use
	x4 [][4]float64 // four-column lockstep scratch, likewise
}

// FactorBanded factorises m, which must be symmetric, (weakly) diagonally
// dominant, and banded under perm outside the single border row/column.
// perm maps every non-border node to its position in the banded ordering
// and the border node to -1; the factorisation keeps perm, so the caller
// must not modify it afterwards. The half bandwidth is detected from the
// non-zero pattern. A zero or negative pivot — the matrix class makes
// them equivalent to singularity — is reported as a node with no path to
// ambient, matching the dense reference LU in linalg_test.go.
func FactorBanded(m *Dense, border int, perm []int) (*BandedLU, error) {
	return factorBanded(m, nil, border, perm)
}

// factorBanded factorises m + diag(shift) without forming the sum; a nil
// shift factorises m itself. Each diagonal entry is m's plus the shift,
// one addition, exactly as if the shift had been added to a copy of m.
// The backward-Euler integrator passes G and C/dt this way instead of
// cloning the dense conductance matrix per step size.
func factorBanded(m *Dense, shift []float64, border int, perm []int) (*BandedLU, error) {
	n := m.N
	if border < 0 || border >= n {
		panic(fmt.Sprintf("thermal: border node %d outside %d-node system", border, n))
	}
	if len(perm) != n {
		panic(fmt.Sprintf("thermal: permutation has %d entries for %d nodes", len(perm), n))
	}
	diag := func(i int) float64 {
		if shift == nil {
			return m.At(i, i)
		}
		return m.At(i, i) + shift[i]
	}
	nb := n - 1
	seen := make([]bool, nb)
	for node, p := range perm {
		if node == border {
			if p != -1 {
				panic("thermal: border node must map to -1 in the band permutation")
			}
			continue
		}
		if p < 0 || p >= nb || seen[p] {
			panic("thermal: band permutation is not a bijection onto the non-border nodes")
		}
		seen[p] = true
	}
	if err := checkSymmetricDominant(m, diag); err != nil {
		return nil, err
	}

	// Half bandwidth from the non-zero pattern (≈2·gridwidth for the
	// interleaved mesh ordering; fill-in during elimination stays inside).
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

	stride := 2*k + 1
	f := &BandedLU{
		n: n, nb: nb, k: k, border: border,
		perm: perm,
		ab:   make([]float64, nb*stride),
		bcol: make([]float64, nb),
		y:    make([]float64, nb),
		x:    make([]float64, nb),
	}
	for i := 0; i < n; i++ {
		if i == border {
			continue
		}
		pi := perm[i]
		f.ab[pi*stride+k] = diag(i)
		f.bcol[pi] = m.At(i, border)
		for j := i + 1; j < n; j++ {
			if j == border {
				continue
			}
			if v := m.At(i, j); v != 0 {
				pj := perm[j]
				f.ab[pi*stride+(pj-pi+k)] = v
				f.ab[pj*stride+(pi-pj+k)] = v
			}
		}
	}

	// Singularity threshold: for this matrix class genuine pivots are
	// bounded below by each row's dominance surplus (the coupling toward
	// ambient), while an eliminated no-path-to-ambient node leaves only
	// rounding residue, many orders of magnitude below the diagonal scale.
	dmax := 0.0
	for i := 0; i < n; i++ {
		if d := diag(i); d > dmax {
			dmax = d
		}
	}
	tiny := 1e-9 * dmax

	// Unpivoted banded LU (Doolittle): stable for this symmetric
	// diagonally-dominant class, asserted above.
	for col := 0; col < nb; col++ {
		piv := f.ab[col*stride+k]
		if !(piv > tiny) {
			return nil, fmt.Errorf("thermal: singular system (pivot %g at banded column %d); some node has no path to ambient", piv, col)
		}
		rmax := col + k
		if rmax > nb-1 {
			rmax = nb - 1
		}
		pivRow := f.ab[col*stride:]
		for r := col + 1; r <= rmax; r++ {
			rRow := f.ab[r*stride:]
			d := col - r + k // column col's offset in row r's band storage
			l := rRow[d] / piv
			rRow[d] = l
			if l == 0 {
				continue
			}
			for cc := 1; cc <= rmax-col; cc++ {
				rRow[d+cc] -= float64(l * pivRow[k+cc])
			}
		}
	}
	f.deriveRuns()

	// Border elimination: y = A⁻¹·b and the Schur complement
	// d - bᵀ·y, which is the sink's effective conductance to ambient —
	// non-positive exactly when the network floats with no ambient path.
	copy(f.y, f.bcol)
	f.solveSingle(f.y)
	d := diag(border)
	acc := 0.0
	for i, b := range f.bcol {
		if b != 0 {
			acc += float64(b * f.y[i])
		}
	}
	f.schur = d - acc
	if !(f.schur > tiny) {
		return nil, fmt.Errorf("thermal: singular system (border Schur complement %g); the heat sink has no path to ambient", f.schur)
	}
	return f, nil
}

// row returns banded row i of the factored band indexed by column: row(i)[j]
// is entry (i, j) for |i-j| ≤ k.
func (f *BandedLU) row(i int) []float64 { return f.ab[i*2*f.k+f.k:] }

// deriveRuns records lrun and urun from the factored band in one
// allocation: a counting pass sizes it, a second pass fills it.
func (f *BandedLU) deriveRuns() {
	nb, k := f.nb, f.k
	size := 0
	for i := 0; i < nb; i++ {
		if i > 0 {
			size += 1 + 2*countRuns(f.row(i), max(i-k, 0), i)
		}
		size += 1 + 2*countRuns(f.row(i), i+1, min(i+k, nb-1)+1)
	}
	runs := make([]int32, 0, size)
	for i := 1; i < nb; i++ {
		runs = appendRuns(runs, f.row(i), max(i-k, 0), i)
	}
	nl := len(runs)
	for i := nb - 1; i >= 0; i-- {
		runs = appendRuns(runs, f.row(i), i+1, min(i+k, nb-1)+1)
	}
	f.lrun, f.urun = runs[:nl:nl], runs[nl:]
}

// countRuns counts the runs of consecutive non-zero entries of row over
// columns [lo, hi).
func countRuns(row []float64, lo, hi int) int {
	n := 0
	for j := lo; j < hi; j++ {
		if row[j] != 0 && (j == lo || row[j-1] == 0) {
			n++
		}
	}
	return n
}

// appendRuns appends the runs of consecutive non-zero entries of row over
// columns [lo, hi) to dst: their count, then each run's [a, b).
func appendRuns(dst []int32, row []float64, lo, hi int) []int32 {
	at := len(dst)
	dst = append(dst, 0)
	for j := lo; j < hi; j++ {
		if row[j] == 0 {
			continue
		}
		a := j
		for j < hi && row[j] != 0 {
			j++
		}
		dst = append(dst, int32(a), int32(j))
		dst[at]++
	}
	return dst
}

// checkSymmetricDominant asserts the structural properties the unpivoted
// banded factorisation relies on: symmetry and weak diagonal dominance
// with non-negative diagonal (within rounding slack), where diag(i) is the
// matrix's diagonal entry i. The thermal stamps construct exactly this
// class; anything else needs a pivoting factorisation, which this package
// does not provide.
func checkSymmetricDominant(m *Dense, diag func(i int) float64) error {
	n := m.N
	for i := 0; i < n; i++ {
		off := 0.0
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			a, b := m.At(i, j), m.At(j, i)
			if d := math.Abs(a - b); d > 1e-9*(math.Abs(a)+math.Abs(b)) {
				return fmt.Errorf("thermal: matrix not symmetric at (%d,%d): %g vs %g; banded factorisation requires the symmetric RC form", i, j, a, b)
			}
			off += math.Abs(a)
		}
		d := diag(i)
		if d < 0 || d < off*(1-1e-9) {
			return fmt.Errorf("thermal: row %d not diagonally dominant (diagonal %g, off-diagonal sum %g); unpivoted banded factorisation would be unstable", i, d, off)
		}
	}
	return nil
}

// solveSingle performs the banded forward and back substitution in place
// on one right-hand side — the per-solve hot path. It walks each row's
// non-zero runs (lrun, then urun) instead of the whole band: within a row
// it subtracts factor·x[j] for ascending j over exactly the non-zero
// in-band factors, then (back sweep) divides by the pivot. That is the
// zero-skipping band sweep's operation sequence, and the lockstep
// kernels' per-column sequence, which is what makes a batched solve
// bitwise identical to repeated single solves.
//
//hotnoc:noalloc
func (f *BandedLU) solveSingle(x []float64) {
	// p indexes the current row's run count in run; base is row i's
	// offset in ab (see ab), so ab[base+j] is entry (i, j).
	ab, k2 := f.ab, 2*f.k
	run, p, base := f.lrun, 0, f.k
	for i := 1; i < f.nb; i++ {
		base += k2
		s := x[i]
		for end := p + 1 + 2*int(run[p]); p+1 < end; p += 2 {
			a, b := int(run[p+1]), int(run[p+2])
			s = subRun(s, ab[base+a:base+b], x[a:b])
		}
		p++
		x[i] = s
	}
	run, p = f.urun, 0
	for i := f.nb - 1; i >= 0; i-- {
		s := x[i]
		for end := p + 1 + 2*int(run[p]); p+1 < end; p += 2 {
			a, b := int(run[p+1]), int(run[p+2])
			s = subRun(s, ab[base+a:base+b], x[a:b])
		}
		p++
		x[i] = s / ab[base+i]
		base -= k2
	}
}

// subRun returns s - fac[0]·x[0] - fac[1]·x[1] - …, subtracting one
// product at a time in ascending order.
//
//hotnoc:noalloc
func subRun(s float64, fac, x []float64) float64 {
	x = x[:len(fac)]
	for j, v := range fac {
		s -= float64(v * x[j])
	}
	return s
}

// lane is one row of the right-hand sides the lockstep kernels solve
// side by side: in a []L, x[i][c] is row i (banded order) of column c.
type lane interface{ [2]float64 | [4]float64 }

// lanes2 and lanes4 return the lockstep scratch of each width, nb rows.
//
//hotnoc:noalloc
func (f *BandedLU) lanes2() [][2]float64 {
	if f.x2 == nil {
		f.x2 = make([][2]float64, f.nb) //hotnoc:allow noalloc scratch made once per factorisation, then reused at 0 allocs/op
	}
	return f.x2
}

// lanes4 is lanes2 at width four.
//
//hotnoc:noalloc
func (f *BandedLU) lanes4() [][4]float64 {
	if f.x4 == nil {
		f.x4 = make([][4]float64, f.nb) //hotnoc:allow noalloc scratch made once per factorisation, then reused at 0 allocs/op
	}
	return f.x4
}

// solve2 and solve4 are solveSingle on two and four right-hand sides
// side by side (see lane). Each column's running sum stays in its own
// register, the walk over lrun and urun is solveSingle's, and every
// column performs exactly solveSingle's subtractions in its order and
// then its pivot division, so column c comes out bitwise equal to
// solveSingle of column c. The columns' chains are independent, so they
// overlap in the pipeline that a single chain leaves idle, while the
// factors and the run walk are shared.
//
//hotnoc:noalloc
func (f *BandedLU) solve2(x [][2]float64) {
	ab, k2 := f.ab, 2*f.k
	run, p, base := f.lrun, 0, f.k
	for i := 1; i < f.nb; i++ {
		base += k2
		xi := &x[i]
		s0, s1 := xi[0], xi[1]
		for end := p + 1 + 2*int(run[p]); p+1 < end; p += 2 {
			a, b := int(run[p+1]), int(run[p+2])
			s0, s1 = subRun2(s0, s1, ab[base+a:base+b], x[a:b])
		}
		p++
		xi[0], xi[1] = s0, s1
	}
	run, p = f.urun, 0
	for i := f.nb - 1; i >= 0; i-- {
		xi := &x[i]
		s0, s1 := xi[0], xi[1]
		for end := p + 1 + 2*int(run[p]); p+1 < end; p += 2 {
			a, b := int(run[p+1]), int(run[p+2])
			s0, s1 = subRun2(s0, s1, ab[base+a:base+b], x[a:b])
		}
		p++
		piv := ab[base+i]
		xi[0], xi[1] = s0/piv, s1/piv
		base -= k2
	}
}

// solve4 is solve2 at width four.
//
//hotnoc:noalloc
func (f *BandedLU) solve4(x [][4]float64) {
	ab, k2 := f.ab, 2*f.k
	run, p, base := f.lrun, 0, f.k
	for i := 1; i < f.nb; i++ {
		base += k2
		xi := &x[i]
		s0, s1, s2, s3 := xi[0], xi[1], xi[2], xi[3]
		for end := p + 1 + 2*int(run[p]); p+1 < end; p += 2 {
			a, b := int(run[p+1]), int(run[p+2])
			s0, s1, s2, s3 = subRun4(s0, s1, s2, s3, ab[base+a:base+b], x[a:b])
		}
		p++
		xi[0], xi[1], xi[2], xi[3] = s0, s1, s2, s3
	}
	run, p = f.urun, 0
	for i := f.nb - 1; i >= 0; i-- {
		xi := &x[i]
		s0, s1, s2, s3 := xi[0], xi[1], xi[2], xi[3]
		for end := p + 1 + 2*int(run[p]); p+1 < end; p += 2 {
			a, b := int(run[p+1]), int(run[p+2])
			s0, s1, s2, s3 = subRun4(s0, s1, s2, s3, ab[base+a:base+b], x[a:b])
		}
		p++
		piv := ab[base+i]
		xi[0], xi[1], xi[2], xi[3] = s0/piv, s1/piv, s2/piv, s3/piv
		base -= k2
	}
}

// subRun2 is subRun on two columns: it returns s0 and s1 less fac[j]
// times x[j][0] and x[j][1] respectively, one product at a time in
// ascending j.
//
//hotnoc:noalloc
func subRun2(s0, s1 float64, fac []float64, x [][2]float64) (float64, float64) {
	x = x[:len(fac)]
	for j, v := range fac {
		xj := &x[j]
		s0 -= float64(v * xj[0])
		s1 -= float64(v * xj[1])
	}
	return s0, s1
}

// subRun4 is subRun2 on four columns.
//
//hotnoc:noalloc
func subRun4(s0, s1, s2, s3 float64, fac []float64, x [][4]float64) (float64, float64, float64, float64) {
	x = x[:len(fac)]
	for j, v := range fac {
		xj := &x[j]
		s0 -= float64(v * xj[0])
		s1 -= float64(v * xj[1])
		s2 -= float64(v * xj[2])
		s3 -= float64(v * xj[3])
	}
	return s0, s1, s2, s3
}

// border2 and border4 return the border unknowns of the columns of x,
// already through the banded sweeps: column c's is
// (rb[c] - bᵀ·x_c)/schur, the sum and division solveBordered performs
// for one column, with the columns' sums carried side by side. Entries
// past the width are unused.
//
//hotnoc:noalloc
func (f *BandedLU) border2(x [][2]float64, rb [4]float64) [4]float64 {
	var a0, a1 float64
	for i, bc := range f.bcol {
		if bc != 0 {
			xi := &x[i]
			a0 += float64(bc * xi[0])
			a1 += float64(bc * xi[1])
		}
	}
	return [4]float64{(rb[0] - a0) / f.schur, (rb[1] - a1) / f.schur}
}

// border4 is border2 at width four.
//
//hotnoc:noalloc
func (f *BandedLU) border4(x [][4]float64, rb [4]float64) [4]float64 {
	var a0, a1, a2, a3 float64
	for i, bc := range f.bcol {
		if bc != 0 {
			xi := &x[i]
			a0 += float64(bc * xi[0])
			a1 += float64(bc * xi[1])
			a2 += float64(bc * xi[2])
			a3 += float64(bc * xi[3])
		}
	}
	return [4]float64{(rb[0] - a0) / f.schur, (rb[1] - a1) / f.schur, (rb[2] - a2) / f.schur, (rb[3] - a3) / f.schur}
}

// Solve solves M·x = b into dst, both in node order. dst and b may alias.
// It is allocation-free.
//
//hotnoc:noalloc
func (f *BandedLU) Solve(dst, b []float64) {
	if len(dst) != f.n || len(b) != f.n {
		panic("thermal: banded Solve dimension mismatch")
	}
	for node, p := range f.perm {
		if p >= 0 {
			f.x[p] = b[node]
		}
	}
	f.solveBordered(dst, b[f.border])
}

// solveBordered finishes a single solve whose right-hand side is already
// in place: the banded entries in f.x (banded order) and the border
// entry rb. It runs both sweeps, the rank-one border fixup, and one
// scatter of the node-order solution into dst. The integrators assemble
// their right-hand sides straight into f.x and call it directly.
//
//hotnoc:noalloc
func (f *BandedLU) solveBordered(dst []float64, rb float64) {
	x := f.x
	f.solveSingle(x)
	acc := 0.0
	for i, bc := range f.bcol {
		if bc != 0 {
			acc += float64(bc * x[i])
		}
	}
	s := (rb - acc) / f.schur
	for node, p := range f.perm {
		if p >= 0 {
			dst[node] = x[p] - float64(f.y[p]*s)
		}
	}
	dst[f.border] = s
}

// SolveBatch solves M·X = B for ncols right-hand sides. dst and rhs are
// row-major n×ncols blocks (row i holds node i's value for every column)
// and may alias. The columns go through the four-column lockstep kernel
// in panels, a tail of one or two columns through the two-column one
// (spare columns repeat the panel's last column and are discarded), so
// one factorisation serves a whole chunk of steady-state solves — the
// influence-matrix construction feeds the identity block through it —
// and each column's result is bitwise identical to a single Solve of
// that column.
//
//hotnoc:noalloc
func (f *BandedLU) SolveBatch(dst, rhs []float64, ncols int) {
	if ncols <= 0 {
		panic(fmt.Sprintf("thermal: SolveBatch with %d columns", ncols))
	}
	if len(dst) != f.n*ncols || len(rhs) != f.n*ncols {
		panic("thermal: SolveBatch dimension mismatch")
	}
	for c0 := 0; c0 < ncols; c0 += 4 {
		r := min(ncols-c0, 4)
		if r > 2 {
			x := f.lanes4()
			rb := gatherPanel(f, x, rhs, ncols, c0, r)
			f.solve4(x)
			scatterPanel(f, x, dst, ncols, c0, r, f.border4(x, rb))
		} else {
			x := f.lanes2()
			rb := gatherPanel(f, x, rhs, ncols, c0, r)
			f.solve2(x)
			scatterPanel(f, x, dst, ncols, c0, r, f.border2(x, rb))
		}
	}
}

// gatherPanel loads columns c0..c0+r-1 of the row-major n×ncols block rhs
// into the lanes of x in banded order, repeating the last one into any
// spare lane, and returns their border entries.
//
//hotnoc:noalloc
func gatherPanel[L lane](f *BandedLU, x []L, rhs []float64, ncols, c0, r int) (rb [4]float64) {
	var width L
	for c := range len(width) {
		col := c0 + min(c, r-1)
		for node, p := range f.perm {
			if p >= 0 {
				x[p][c] = rhs[node*ncols+col]
			}
		}
		rb[c] = rhs[f.border*ncols+col]
	}
	return rb
}

// scatterPanel writes the solutions of the first r lanes of x, whose
// border unknowns are s, to columns c0..c0+r-1 of dst in node order.
//
//hotnoc:noalloc
func scatterPanel[L lane](f *BandedLU, x []L, dst []float64, ncols, c0, r int, s [4]float64) {
	for c := range r {
		for node, p := range f.perm {
			if p >= 0 {
				dst[node*ncols+c0+c] = x[p][c] - float64(f.y[p]*s[c])
			}
		}
		dst[f.border*ncols+c0+c] = s[c]
	}
}
