package thermal

import (
	"math/rand"
	"testing"

	"hotnoc/internal/floorplan"
	"hotnoc/internal/geom"
)

func benchNetwork(b *testing.B, n int) *Network {
	b.Helper()
	nw, err := NewNetwork(floorplan.NewMesh(geom.NewGrid(n, n)), DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	return nw
}

func benchPower(n int) []float64 {
	r := rand.New(rand.NewSource(1))
	p := make([]float64, n)
	for i := range p {
		p[i] = r.Float64() * 2
	}
	return p
}

// BenchmarkFactor measures one dense pivoted LU factorisation of the 5x5
// chip's 51-node conductance matrix — the test-oracle reference path.
func BenchmarkFactor(b *testing.B) {
	nw := benchNetwork(b, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Factor(nw.G); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFactorBanded measures one bordered-banded factorisation of the
// same system, the production path (O(n·k²) vs the dense O(n³)).
func BenchmarkFactorBanded(b *testing.B) {
	nw := benchNetwork(b, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FactorBanded(nw.G, nw.Sink(), nw.BandPerm()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadySolve measures one steady-state solve on the banded hot
// path with a prefactored system; 0 allocs/op is pinned by the alloc guard.
func BenchmarkSteadySolve(b *testing.B) {
	nw := benchNetwork(b, 5)
	s, err := NewSteadySolver(nw)
	if err != nil {
		b.Fatal(err)
	}
	p := benchPower(nw.NDie)
	die := make([]float64, nw.NDie)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SolveInto(die, p)
	}
}

// BenchmarkSteadySolveDense measures the same solve through the dense
// reference LU, the before side of the banded comparison.
func BenchmarkSteadySolveDense(b *testing.B) {
	nw := benchNetwork(b, 5)
	lu, err := Factor(nw.G)
	if err != nil {
		b.Fatal(err)
	}
	p := benchPower(nw.NDie)
	rhs := make([]float64, nw.NNodes)
	t := make([]float64, nw.NNodes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(rhs, p)
		for j := range rhs {
			if j >= nw.NDie {
				rhs[j] = 0
			}
			rhs[j] += nw.B[j]
		}
		lu.Solve(t, rhs)
	}
}

// BenchmarkInfluenceBuild measures the full influence-matrix construction,
// one batched multi-RHS solve over the identity block (was n sequential
// solves).
func BenchmarkInfluenceBuild(b *testing.B) {
	nw := benchNetwork(b, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewInfluence(nw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInfluencePeak measures the annealer's actual inner loop: one
// peak-temperature evaluation through the influence matrix.
func BenchmarkInfluencePeak(b *testing.B) {
	nw := benchNetwork(b, 5)
	inf, err := NewInfluence(nw)
	if err != nil {
		b.Fatal(err)
	}
	p := benchPower(nw.NDie)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inf.PeakTemp(p)
	}
}

// BenchmarkTransientStep measures one backward-Euler step of the 5x5 model.
func BenchmarkTransientStep(b *testing.B) {
	nw := benchNetwork(b, 5)
	tr, err := NewTransient(nw, 5e-6)
	if err != nil {
		b.Fatal(err)
	}
	p := benchPower(nw.NDie)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step(p)
	}
}

// BenchmarkCycleLoopStep measures one iteration of RunCycle's inner loop
// with the leakage closure engaged — die extraction, leakage map, power
// assembly, banded step; 0 allocs/op is pinned by the alloc guard.
func BenchmarkCycleLoopStep(b *testing.B) {
	nw := benchNetwork(b, 5)
	tr, err := NewTransient(nw, 5e-6)
	if err != nil {
		b.Fatal(err)
	}
	base := benchPower(nw.NDie)
	die := make([]float64, nw.NDie)
	leak := make([]float64, nw.NDie)
	pm := make([]float64, nw.NDie)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.DieInto(die)
		for j, t := range die {
			leak[j] = 0.012 * (1 + 0.018*(t-40))
		}
		copy(pm, base)
		for j, l := range leak {
			pm[j] += l
		}
		tr.Step(pm)
	}
}

// BenchmarkRunCycle measures a full quasi-steady cycle evaluation of a
// four-entry schedule, the thermal cost of one scheme evaluation,
// including the factorisations of a fresh Evaluator per call.
func BenchmarkRunCycle(b *testing.B) {
	nw := benchNetwork(b, 5)
	entries := make([]ScheduleEntry, 4)
	for k := range entries {
		p := benchPower(nw.NDie)
		entries[k] = ScheduleEntry{Power: p, Duration: 120e-6}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := NewEvaluator(nw)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ev.RunCycle(entries, CycleOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateCycle measures the warm serving cost of one cycle
// evaluation through a cached Evaluator — the per-point latency floor of a
// sweep after PRs 2 and 5 moved builds and characterizations off the path.
func BenchmarkEvaluateCycle(b *testing.B) {
	nw := benchNetwork(b, 5)
	ev, err := NewEvaluator(nw)
	if err != nil {
		b.Fatal(err)
	}
	entries := make([]ScheduleEntry, 4)
	for k := range entries {
		p := benchPower(nw.NDie)
		entries[k] = ScheduleEntry{Power: p, Duration: 120e-6}
	}
	leak := func(dst, die []float64) {
		for i, t := range die {
			dst[i] = 0.012 * (1 + 0.018*(t-40))
		}
	}
	opts := CycleOptions{Leak: leak}
	if _, err := ev.RunCycle(entries, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.RunCycle(entries, opts); err != nil {
			b.Fatal(err)
		}
	}
}
