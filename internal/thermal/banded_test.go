package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"hotnoc/internal/floorplan"
	"hotnoc/internal/geom"
)

// denseSolve is the retained reference path: pivoted dense LU over the
// same system the banded solver handles. The differential tests below pin
// the production kernels to it.
func denseSolve(t *testing.T, m *Dense, rhs []float64) []float64 {
	t.Helper()
	lu, err := Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(rhs))
	lu.Solve(out, rhs)
	return out
}

// TestBandedDifferentialRandomGrids sweeps random grid shapes, power maps
// and step sizes and asserts the banded steady and transient kernels agree
// with the dense pivoted reference to ≤1e-8 °C.
func TestBandedDifferentialRandomGrids(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		w, h := 1+r.Intn(6), 1+r.Intn(6)
		nw, err := NewNetwork(floorplan.NewMesh(geom.NewGrid(w, h)), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		p := make([]float64, nw.NDie)
		for i := range p {
			p[i] = r.Float64() * 3
		}

		// Steady state: banded SteadySolver vs dense LU on G·T = P + B.
		rhs := make([]float64, nw.NNodes)
		copy(rhs, p)
		for i := range rhs {
			rhs[i] += nw.B[i]
		}
		want := denseSolve(t, nw.G, rhs)
		ss, err := NewSteadySolver(nw)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, nw.NNodes)
		ss.SolveFullInto(got, p)
		if d := vecMaxAbsDiff(got, want); d > 1e-8 {
			t.Fatalf("%dx%d grid: banded steady solve differs from dense by %g °C", w, h, d)
		}

		// Transient: banded backward-Euler steps vs a dense reference
		// integration of the same (C/dt + G) system.
		dt := []float64{2e-6, 5e-6, 10e-6}[r.Intn(3)]
		tr, err := NewTransient(nw, dt)
		if err != nil {
			t.Fatal(err)
		}
		m := nw.G.Clone()
		for i := 0; i < nw.NNodes; i++ {
			m.Add(i, i, nw.C[i]/dt)
		}
		lu, err := Factor(m)
		if err != nil {
			t.Fatal(err)
		}
		ref := make([]float64, nw.NNodes)
		for i := range ref {
			ref[i] = nw.Par.AmbientC
		}
		refRHS := make([]float64, nw.NNodes)
		T := ambientState(nw)
		steps := 5 + r.Intn(20)
		for s := 0; s < steps; s++ {
			tr.StepStates([][]float64{T}, [][]float64{p})
			for i := range refRHS {
				pv := 0.0
				if i < nw.NDie {
					pv = p[i]
				}
				refRHS[i] = nw.C[i]/dt*ref[i] + pv + nw.B[i]
			}
			lu.Solve(ref, refRHS)
		}
		if d := vecMaxAbsDiff(T, ref); d > 1e-8 {
			t.Fatalf("%dx%d grid dt=%g: banded transient differs from dense by %g °C after %d steps",
				w, h, dt, d, steps)
		}
	}
}

// TestBandedBandwidth: the interleaved ordering keeps the half bandwidth
// at ~2·gridwidth, the property the O(n·k²) complexity rests on.
func TestBandedBandwidth(t *testing.T) {
	for _, wh := range [][2]int{{3, 3}, {5, 5}, {6, 4}} {
		nw, err := NewNetwork(floorplan.NewMesh(geom.NewGrid(wh[0], wh[1])), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		f, err := FactorBanded(nw.G, nw.Sink(), nw.BandPerm())
		if err != nil {
			t.Fatal(err)
		}
		// Horizontal neighbours are 2 apart in the interleaved order,
		// vertical neighbours 2·W apart.
		if want := 2 * wh[0]; f.k > want {
			t.Errorf("%dx%d grid: half bandwidth %d exceeds 2·W = %d", wh[0], wh[1], f.k, want)
		}
	}
}

// TestBandedBatchMatchesSequential: a batched multi-RHS solve is bitwise
// identical to solving each column on its own.
func TestBandedBatchMatchesSequential(t *testing.T) {
	nw := testNetwork(t, 4)
	f, err := FactorBanded(nw.G, nw.Sink(), nw.BandPerm())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for _, ncols := range []int{1, 2, 7, nw.NNodes} {
		rhs := make([]float64, nw.NNodes*ncols)
		for i := range rhs {
			rhs[i] = r.Float64() * 10
		}
		dst := make([]float64, len(rhs))
		f.SolveBatch(dst, rhs, ncols)
		col := make([]float64, nw.NNodes)
		for c := 0; c < ncols; c++ {
			for i := 0; i < nw.NNodes; i++ {
				col[i] = rhs[i*ncols+c]
			}
			f.Solve(col, col)
			for i := 0; i < nw.NNodes; i++ {
				if dst[i*ncols+c] != col[i] {
					t.Fatalf("ncols=%d col=%d row=%d: batch %v != sequential %v",
						ncols, c, i, dst[i*ncols+c], col[i])
				}
			}
		}
	}
}

// TestBandedSingularNoPathToAmbient: a network whose ambient coupling is
// removed is singular; both the dense reference and the banded kernel must
// refuse it with the physical diagnosis.
func TestBandedSingularNoPathToAmbient(t *testing.T) {
	nw := testNetwork(t, 3)
	sink := nw.Sink()
	// Remove the sink-to-ambient conductance: the whole network floats.
	// The bordered elimination detects this exactly (the Schur complement
	// is the sink's effective conductance to ambient) where the pivoted
	// dense path would grind through rounding noise.
	g := nw.G.Clone()
	g.Add(sink, sink, -1/nw.Par.RConvection)
	if _, err := FactorBanded(g, sink, nw.BandPerm()); err == nil {
		t.Fatal("FactorBanded accepted a floating network")
	} else if !strings.Contains(err.Error(), "ambient") {
		t.Fatalf("singular error lost the physical diagnosis: %v", err)
	}

	// An isolated node (all couplings zero) is exactly singular for both
	// the dense reference and the banded kernel.
	iso := nw.G.Clone()
	for j := 0; j < nw.NNodes; j++ {
		iso.Set(0, j, 0)
		iso.Set(j, 0, 0)
	}
	if _, err := Factor(iso); err == nil {
		t.Fatal("dense Factor accepted an isolated node")
	}
	if _, err := FactorBanded(iso, sink, nw.BandPerm()); err == nil {
		t.Fatal("FactorBanded accepted an isolated node")
	} else if !strings.Contains(err.Error(), "ambient") {
		t.Fatalf("isolated-node error lost the physical diagnosis: %v", err)
	}
	// The steady solver and influence builder surface the same failure.
	saved := nw.G
	nw.G = g
	if _, err := NewSteadySolver(nw); err == nil {
		t.Fatal("NewSteadySolver accepted a floating network")
	}
	if _, err := NewInfluence(nw); err == nil {
		t.Fatal("NewInfluence accepted a floating network")
	}
	nw.G = saved
}

// TestFactorBandedRejectsNonRCMatrices: the unpivoted kernel asserts the
// symmetry and diagonal dominance its stability proof needs.
func TestFactorBandedRejectsNonRCMatrices(t *testing.T) {
	nw := testNetwork(t, 3)
	sink := nw.Sink()

	asym := nw.G.Clone()
	asym.Set(0, 1, asym.At(0, 1)+1)
	if _, err := FactorBanded(asym, sink, nw.BandPerm()); err == nil || !strings.Contains(err.Error(), "symmetric") {
		t.Fatalf("asymmetric matrix not rejected: %v", err)
	}

	weak := nw.G.Clone()
	weak.Add(0, 0, -0.5*weak.At(0, 0))
	if _, err := FactorBanded(weak, sink, nw.BandPerm()); err == nil || !strings.Contains(err.Error(), "dominant") {
		t.Fatalf("non-dominant matrix not rejected: %v", err)
	}
}

// TestBandedSolveAliasing: dst may alias the right-hand side.
func TestBandedSolveAliasing(t *testing.T) {
	nw := testNetwork(t, 3)
	f, err := FactorBanded(nw.G, nw.Sink(), nw.BandPerm())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	b := make([]float64, nw.NNodes)
	for i := range b {
		b[i] = r.Float64()
	}
	want := make([]float64, nw.NNodes)
	f.Solve(want, b)
	f.Solve(b, b)
	for i := range b {
		if b[i] != want[i] {
			t.Fatalf("aliased solve differs at %d: %v != %v", i, b[i], want[i])
		}
	}
}

// TestHotLoopsAllocationFree pins the allocation-free contract of every
// hot-path kernel: steady solve, transient step, lockstep steps of two to
// four states, and the full cycle loop with the leakage closure engaged,
// alone and as a lockstep set.
func TestHotLoopsAllocationFree(t *testing.T) {
	nw := testNetwork(t, 5)
	ev, err := NewEvaluator(nw)
	if err != nil {
		t.Fatal(err)
	}
	ss := ev.ss
	tr, err := ev.Transient(5e-6)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, nw.NDie)
	for i := range p {
		p[i] = 0.5
	}
	die := make([]float64, nw.NDie)
	full := make([]float64, nw.NNodes)
	one, onePow := [][]float64{ambientState(nw)}, [][]float64{p}
	leakBuf := make([]float64, nw.NDie)
	leak := func(dst, temps []float64) {
		for i, d := range temps {
			dst[i] = 0.01 + 1e-4*d
		}
	}

	checks := []struct {
		name string
		fn   func()
	}{
		{"SolveInto", func() { ss.SolveInto(die, p) }},
		{"SolveFullInto", func() { ss.SolveFullInto(full, p) }},
		{"StepStates with 1 state", func() { tr.StepStates(one, onePow) }},
		{"cycle step with leak", func() {
			leak(leakBuf, one[0][:nw.NDie])
			tr.StepStates(one, onePow)
		}},
	}
	for k := 2; k <= 4; k++ {
		T, pow := make([][]float64, k), make([][]float64, k)
		for c := range T {
			T[c], pow[c] = make([]float64, nw.NNodes), p
		}
		checks = append(checks, struct {
			name string
			fn   func()
		}{fmt.Sprintf("StepStates with %d states", k), func() { tr.StepStates(T, pow) }})
	}
	for _, c := range checks {
		c.fn() // warm any lazy scratch before measuring
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s allocates %g times per op, want 0", c.name, allocs)
		}
	}

	// The cycle evaluation may allocate only its result (MaxPerBlock plus
	// the CycleResult bookkeeping), independent of repetitions and steps.
	entries := []ScheduleEntry{{Power: p, Duration: 200e-6}}
	opts := CycleOptions{Dt: 10e-6, Leak: leak}
	if _, err := ev.RunCycle(entries, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ev.RunCycle(entries, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("RunCycle allocates %g times per evaluation, want ≤3 (result only)", allocs)
	}

	// A lockstep set of six schedules (four lanes, two refills) may
	// allocate only its results' MaxPerBlock maps and its start order,
	// independent of steps, repetitions and refills.
	scheds := make([][]ScheduleEntry, 6)
	for k := range scheds {
		scheds[k] = []ScheduleEntry{{Power: p, Duration: float64(k+1) * 50e-6}, {Power: die, Duration: 30e-6}}
	}
	out := make([]CycleResult, len(scheds))
	allocs = testing.AllocsPerRun(20, func() {
		if err := ev.RunCycleSet(scheds, opts, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(len(scheds)+1) {
		t.Errorf("RunCycleSet of %d schedules allocates %g times per evaluation, want ≤%d (results and start order only)",
			len(scheds), allocs, len(scheds)+1)
	}
}

// TestConcurrentEvaluatorsShareNetwork: one read-only network, many
// evaluators in parallel — the banded kernels keep all mutable state in
// per-evaluator scratch, so concurrent sweeps must agree bitwise with a
// serial run. Run with -race in CI.
func TestConcurrentEvaluatorsShareNetwork(t *testing.T) {
	nw := testNetwork(t, 4)
	entries := make([][]ScheduleEntry, 8)
	r := rand.New(rand.NewSource(5))
	for k := range entries {
		p := make([]float64, nw.NDie)
		for i := range p {
			p[i] = r.Float64() * 2
		}
		entries[k] = []ScheduleEntry{{Power: p, Duration: 150e-6}}
	}
	leak := func(dst, temps []float64) {
		for i, d := range temps {
			dst[i] = 0.01 + 2e-4*d
		}
	}
	opts := CycleOptions{Dt: 10e-6, Leak: leak}

	serial := make([]CycleResult, len(entries))
	for k := range entries {
		ev, err := NewEvaluator(nw)
		if err != nil {
			t.Fatal(err)
		}
		serial[k], err = ev.RunCycle(entries[k], opts)
		if err != nil {
			t.Fatal(err)
		}
	}

	parallel := make([]CycleResult, len(entries))
	errs := make([]error, len(entries))
	done := make(chan int)
	for k := range entries {
		go func(k int) {
			defer func() { done <- k }()
			ev, err := NewEvaluator(nw)
			if err != nil {
				errs[k] = err
				return
			}
			parallel[k], errs[k] = ev.RunCycle(entries[k], opts)
		}(k)
	}
	for range entries {
		<-done
	}
	for k := range entries {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		if serial[k].PeakC != parallel[k].PeakC || serial[k].MeanC != parallel[k].MeanC {
			t.Errorf("worker %d: concurrent result differs from serial", k)
		}
	}
}

// TestBandedMatchesDenseInfluence: the batched influence construction
// agrees with per-column dense solves.
func TestBandedMatchesDenseInfluence(t *testing.T) {
	nw := testNetwork(t, 4)
	inf, err := NewInfluence(nw)
	if err != nil {
		t.Fatal(err)
	}
	unit := make([]float64, nw.NDie)
	rhs := make([]float64, nw.NNodes)
	for j := 0; j < nw.NDie; j++ {
		unit[j] = 1
		copy(rhs, unit)
		for i := range rhs {
			if i >= nw.NDie {
				rhs[i] = 0
			}
			rhs[i] += nw.B[i]
		}
		col := denseSolve(t, nw.G, rhs)
		unit[j] = 0
		for i := 0; i < nw.NDie; i++ {
			if d := math.Abs(inf.A.At(i, j) - (col[i] - nw.Par.AmbientC)); d > 1e-8 {
				t.Fatalf("influence A[%d][%d] differs from dense by %g", i, j, d)
			}
		}
	}
}
