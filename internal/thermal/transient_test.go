package thermal

import (
	"math"
	"math/rand"
	"testing"
)

// ambientState returns a node-temperature state at the uniform ambient
// temperature, the rest state an integration starts from.
func ambientState(nw *Network) []float64 {
	T := make([]float64, nw.NNodes)
	for i := range T {
		T[i] = nw.Par.AmbientC
	}
	return T
}

// TestTransientConvergesToSteady: integrating a constant power map long
// enough must land on the steady-state solution.
func TestTransientConvergesToSteady(t *testing.T) {
	nw := testNetwork(t, 4)
	s, err := NewSteadySolver(nw)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	power := make([]float64, nw.NDie)
	for i := range power {
		power[i] = 0.5 + r.Float64()
	}
	want := s.Solve(power)

	tr, err := NewTransient(nw, 20e-3)
	if err != nil {
		t.Fatal(err)
	}
	// Integrate 2000 s of simulated time (100 000 steps): an order of
	// magnitude beyond the sink time constant (CSink * RConvection ≈ 170 s
	// dominates). Backward Euler lets the step be 20 ms without stability
	// concerns.
	T := ambientState(nw)
	for range 100000 {
		tr.StepStates([][]float64{T}, [][]float64{power})
	}
	got := T[:nw.NDie]
	if d := vecMaxAbsDiff(got, want); d > 0.01 {
		t.Fatalf("transient end-state differs from steady state by %g °C", d)
	}
}

// TestTransientMonotonicHeating: from ambient under constant power, die
// temperatures must rise monotonically (no overshoot for this passive RC
// network) and never exceed the steady state.
func TestTransientMonotonicHeating(t *testing.T) {
	nw := testNetwork(t, 4)
	s, _ := NewSteadySolver(nw)
	power := make([]float64, nw.NDie)
	for i := range power {
		power[i] = 1.0
	}
	steady := s.Solve(power)
	tr, err := NewTransient(nw, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	prevPeak := nw.Par.AmbientC - 1e-12
	T := ambientState(nw)
	for step := 0; step < 5000; step++ {
		tr.StepStates([][]float64{T}, [][]float64{power})
		peak, _ := Peak(T[:nw.NDie])
		if peak < prevPeak-1e-9 {
			t.Fatalf("peak fell from %g to %g at step %d", prevPeak, peak, step)
		}
		steadyPeak, _ := Peak(steady)
		if peak > steadyPeak+1e-6 {
			t.Fatalf("peak %g overshot steady %g at step %d", peak, steadyPeak, step)
		}
		prevPeak = peak
	}
}

// TestBackwardEulerStableAtLargeStep: even with a huge step the implicit
// integrator must not blow up, and must still land on steady state.
func TestBackwardEulerStableAtLargeStep(t *testing.T) {
	nw := testNetwork(t, 4)
	s, _ := NewSteadySolver(nw)
	power := make([]float64, nw.NDie)
	power[5] = 3.0
	want := s.Solve(power)
	tr, err := NewTransient(nw, 1.0) // 1 s steps, far beyond die time constants
	if err != nil {
		t.Fatal(err)
	}
	T := ambientState(nw)
	for range 2000 {
		tr.StepStates([][]float64{T}, [][]float64{power})
	}
	got := T[:nw.NDie]
	for i := range got {
		if math.IsNaN(got[i]) || math.IsInf(got[i], 0) {
			t.Fatalf("block %d diverged: %g", i, got[i])
		}
	}
	if d := vecMaxAbsDiff(got, want); d > 0.01 {
		t.Fatalf("large-step end state off steady by %g °C", d)
	}
}

// TestTransientRejectsBadStep covers the error path.
func TestTransientRejectsBadStep(t *testing.T) {
	nw := testNetwork(t, 2)
	if _, err := NewTransient(nw, 0); err == nil {
		t.Fatal("accepted zero dt")
	}
	if _, err := NewTransient(nw, -1e-6); err == nil {
		t.Fatal("accepted negative dt")
	}
}

// mustEvaluator builds the cycle evaluator the RunCycle tests integrate
// with.
func mustEvaluator(t *testing.T, nw *Network) *Evaluator {
	t.Helper()
	ev, err := NewEvaluator(nw)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// TestRunCycleConstantScheduleMatchesSteady: a one-entry schedule is just a
// constant power map, so the cycle peak must equal the steady-state peak.
func TestRunCycleConstantScheduleMatchesSteady(t *testing.T) {
	nw := testNetwork(t, 4)
	ev := mustEvaluator(t, nw)
	s, _ := NewSteadySolver(nw)
	power := make([]float64, nw.NDie)
	power[0], power[5], power[10] = 2, 1.5, 1
	steadyPeak, steadyBlock := Peak(s.Solve(power))

	res, err := ev.RunCycle([]ScheduleEntry{{Power: power, Duration: 500e-6}},
		CycleOptions{Dt: 10e-6, TolC: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PeakC-steadyPeak) > 0.05 {
		t.Fatalf("cycle peak %g, steady peak %g", res.PeakC, steadyPeak)
	}
	if res.PeakBlock != steadyBlock {
		t.Fatalf("cycle peak block %d, steady %d", res.PeakBlock, steadyBlock)
	}
}

// TestRunCycleAlternationReducesPeak is the paper's core physics in
// miniature: alternating a hot spot between two locations with a short
// period must yield a lower peak than parking it in one place, and
// approach the steady peak of the averaged power map as the period
// shrinks.
func TestRunCycleAlternationReducesPeak(t *testing.T) {
	nw := testNetwork(t, 4)
	ev := mustEvaluator(t, nw)
	s, _ := NewSteadySolver(nw)

	pa := make([]float64, nw.NDie)
	pb := make([]float64, nw.NDie)
	pa[5] = 4.0  // hot spot at (1,1)
	pb[10] = 4.0 // hot spot at (2,2)
	staticPeak, _ := Peak(s.Solve(pa))

	avg := make([]float64, nw.NDie)
	for i := range avg {
		avg[i] = (pa[i] + pb[i]) / 2
	}
	avgPeak, _ := Peak(s.Solve(avg))

	res, err := ev.RunCycle([]ScheduleEntry{
		{Power: pa, Duration: 109.3e-6},
		{Power: pb, Duration: 109.3e-6},
	}, CycleOptions{Dt: 5e-6})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakC >= staticPeak {
		t.Fatalf("alternating peak %g did not beat static peak %g", res.PeakC, staticPeak)
	}
	if res.PeakC < avgPeak-1e-3 {
		t.Fatalf("alternating peak %g below averaged-power bound %g", res.PeakC, avgPeak)
	}
	// With a 109 µs period versus millisecond-scale die time constants the
	// cycle peak should sit very close to the averaged-power steady peak.
	if res.PeakC-avgPeak > 0.5 {
		t.Fatalf("alternating peak %g too far above averaged bound %g", res.PeakC, avgPeak)
	}
}

// TestRunCycleLongerPeriodHotter: lengthening the migration period raises
// (or leaves equal) the cycle peak — the paper's period/peak trade-off.
func TestRunCycleLongerPeriodHotter(t *testing.T) {
	nw := testNetwork(t, 4)
	ev := mustEvaluator(t, nw)
	pa := make([]float64, nw.NDie)
	pb := make([]float64, nw.NDie)
	pa[5] = 4.0
	pb[10] = 4.0
	peaks := make([]float64, 0, 3)
	for _, period := range []float64{109.3e-6, 437.2e-6, 874.4e-6} {
		res, err := ev.RunCycle([]ScheduleEntry{
			{Power: pa, Duration: period},
			{Power: pb, Duration: period},
		}, CycleOptions{Dt: period / 20})
		if err != nil {
			t.Fatal(err)
		}
		peaks = append(peaks, res.PeakC)
	}
	if !(peaks[0] <= peaks[1]+1e-6 && peaks[1] <= peaks[2]+1e-6) {
		t.Fatalf("peaks not monotone in period: %v", peaks)
	}
	// The paper reports <0.1 °C for its LDPC workload; this synthetic
	// stimulus slams a full 4 W between two single blocks, several times
	// the per-PE swing of the real workload, so the bound here is looser.
	// The workload-faithful <0.1 °C check lives in the experiment tests.
	if peaks[1]-peaks[0] > 0.75 {
		t.Fatalf("437 µs period raised peak by %g °C, want < 0.75", peaks[1]-peaks[0])
	}
}

// TestRunCycleLeakageCoupling: enabling temperature-dependent leakage must
// raise the cycle peak relative to the same schedule without it.
func TestRunCycleLeakageCoupling(t *testing.T) {
	nw := testNetwork(t, 4)
	ev := mustEvaluator(t, nw)
	power := make([]float64, nw.NDie)
	power[5] = 2.0
	entries := []ScheduleEntry{{Power: power, Duration: 200e-6}}
	noLeak, err := ev.RunCycle(entries, CycleOptions{Dt: 10e-6})
	if err != nil {
		t.Fatal(err)
	}
	leak := func(dst, die []float64) {
		for i, temp := range die {
			dst[i] = 0.02 * math.Exp(0.02*(temp-40))
		}
	}
	withLeak, err := ev.RunCycle(entries, CycleOptions{Dt: 10e-6, Leak: leak})
	if err != nil {
		t.Fatal(err)
	}
	if withLeak.PeakC <= noLeak.PeakC {
		t.Fatalf("leakage did not raise peak: %g vs %g", withLeak.PeakC, noLeak.PeakC)
	}
}

// TestRunCycleErrorPaths covers schedule validation.
func TestRunCycleErrorPaths(t *testing.T) {
	nw := testNetwork(t, 2)
	ev := mustEvaluator(t, nw)
	if _, err := ev.RunCycle(nil, CycleOptions{}); err == nil {
		t.Fatal("accepted empty schedule")
	}
	if _, err := ev.RunCycle([]ScheduleEntry{{Power: []float64{1}, Duration: 1e-3}},
		CycleOptions{}); err == nil {
		t.Fatal("accepted wrong-size power map")
	}
	if _, err := ev.RunCycle([]ScheduleEntry{{Power: make([]float64, nw.NDie), Duration: 0}},
		CycleOptions{}); err == nil {
		t.Fatal("accepted zero duration")
	}
}
