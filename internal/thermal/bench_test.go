package thermal

import (
	"fmt"
	"math"
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

// BenchmarkTransientStep measures one backward-Euler step of the 5x5
// model: StepStates of a single state.
func BenchmarkTransientStep(b *testing.B) {
	nw := benchNetwork(b, 5)
	tr, err := NewTransient(nw, 5e-6)
	if err != nil {
		b.Fatal(err)
	}
	T, p := [][]float64{ambientState(nw)}, [][]float64{benchPower(nw.NDie)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.StepStates(T, p)
	}
}

// BenchmarkCycleLoopStep measures one iteration of RunCycle's inner loop
// with the leakage closure engaged — leakage map over the live die
// temperatures, power assembly, banded step; 0 allocs/op is pinned by the
// alloc guard.
func BenchmarkCycleLoopStep(b *testing.B) {
	nw := benchNetwork(b, 5)
	tr, err := NewTransient(nw, 5e-6)
	if err != nil {
		b.Fatal(err)
	}
	base := benchPower(nw.NDie)
	leak := make([]float64, nw.NDie)
	pm := make([]float64, nw.NDie)
	T, P := [][]float64{ambientState(nw)}, [][]float64{pm}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, t := range T[0][:nw.NDie] {
			leak[j] = 0.012 * (1 + 0.018*(t-40))
		}
		copy(pm, base)
		for j, l := range leak {
			pm[j] += l
		}
		tr.StepStates(T, P)
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

// BenchmarkSolveLockstep measures the banded sweeps of the transient
// iteration matrix at widths 1 (solveSingle), 2 and 4 (the lockstep
// kernels) on the 4x4 and 5x5 chips. One op is one column: a width-w
// iteration counts as w ops, so ns/op is the cost per right-hand side.
// Each iteration reloads the right-hand sides, which keeps the values
// from decaying towards denormals.
func BenchmarkSolveLockstep(b *testing.B) {
	for _, n := range []int{4, 5} {
		nw := benchNetwork(b, n)
		tr, err := NewTransient(nw, 5e-6)
		if err != nil {
			b.Fatal(err)
		}
		f := tr.f
		r := benchPower(4 * f.nb)
		rhs1 := r[:f.nb]
		rhs2, rhs4 := make([][2]float64, f.nb), make([][4]float64, f.nb)
		for i := range rhs4 {
			rhs2[i] = [2]float64(r[2*i:])
			rhs4[i] = [4]float64(r[4*i:])
		}
		x1, x2, x4 := f.x, f.lanes2(), f.lanes4()
		b.Run(fmt.Sprintf("%dx%d/w1", n, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(x1, rhs1)
				f.solveSingle(x1)
			}
		})
		b.Run(fmt.Sprintf("%dx%d/w2", n, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i += 2 {
				copy(x2, rhs2)
				f.solve2(x2)
			}
		})
		b.Run(fmt.Sprintf("%dx%d/w4", n, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i += 4 {
				copy(x4, rhs4)
				f.solve4(x4)
			}
		})
	}
}

// BenchmarkStepLockstep measures a leakage-coupled backward-Euler step
// through StepStates at widths 1, 2 and 4 on the 4x4 and 5x5 chips: per
// state, the leakage map over its die temperatures, its power assembly
// and its share of the step. One op is one state's step.
func BenchmarkStepLockstep(b *testing.B) {
	for _, n := range []int{4, 5} {
		nw := benchNetwork(b, n)
		tr, err := NewTransient(nw, 5e-6)
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%dx%d/w%d", n, n, w), func(b *testing.B) {
				base := benchPower(nw.NDie)
				T, pow := make([][]float64, w), make([][]float64, w)
				leak := make([]float64, nw.NDie)
				for c := range T {
					T[c], pow[c] = make([]float64, nw.NNodes), make([]float64, nw.NDie)
					for i := range T[c] {
						T[c][i] = 60 + float64(c)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i += w {
					for c := range T {
						for j, t := range T[c][:nw.NDie] {
							leak[j] = 0.012 * math.Exp(0.018*(t-40))
						}
						for j, l := range leak {
							pow[c][j] = base[j] + l
						}
					}
					tr.StepStates(T, pow)
				}
			})
		}
	}
}

// BenchmarkCycleSet measures RunCycleSet on a warm Evaluator with 1, 2,
// 4 and 5 four-entry schedules, leakage-coupled, on the 4x4 and 5x5
// chips: five schedules refill a lane. ns/lane-step is the cost of one
// schedule's step — its leakage map, power assembly, share of the
// lockstep solve and cursor — over every step the set takes.
func BenchmarkCycleSet(b *testing.B) {
	leak := func(dst, die []float64) {
		for i, t := range die {
			dst[i] = 0.012 * math.Exp(0.018*(t-40))
		}
	}
	opts := CycleOptions{Leak: leak}
	for _, n := range []int{4, 5} {
		nw := benchNetwork(b, n)
		r := rand.New(rand.NewSource(29))
		for _, k := range []int{1, 2, 4, 5} {
			b.Run(fmt.Sprintf("%dx%d/lanes%d", n, n, k), func(b *testing.B) {
				ev, err := NewEvaluator(nw)
				if err != nil {
					b.Fatal(err)
				}
				scheds := make([][]ScheduleEntry, k)
				for s := range scheds {
					scheds[s] = make([]ScheduleEntry, 4)
					for e := range scheds[s] {
						p := make([]float64, nw.NDie)
						for i := range p {
							p[i] = 2 * r.Float64()
						}
						scheds[s][e] = ScheduleEntry{Power: p, Duration: 120e-6}
					}
				}
				out := make([]CycleResult, k)
				if err := ev.RunCycleSet(scheds, opts, out); err != nil {
					b.Fatal(err)
				}
				steps := 0
				for s, res := range out {
					for _, e := range scheds[s] {
						n, err := Steps(e.Duration, 5e-6)
						if err != nil {
							b.Fatal(err)
						}
						steps += (res.Repetitions + 1) * n
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := ev.RunCycleSet(scheds, opts, out); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/lane-step")
			})
		}
	}
}
