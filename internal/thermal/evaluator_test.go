package thermal

import (
	"reflect"
	"testing"

	"hotnoc/internal/floorplan"
	"hotnoc/internal/geom"
)

func evalTestNetwork(t *testing.T) *Network {
	t.Helper()
	nw, err := NewNetwork(floorplan.NewMesh(geom.NewGrid(4, 4)), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestEvaluatorMatchesRunCycle: a reused evaluator is bitwise identical to
// a fresh one (which factorises everything anew), with and without the
// leakage loop, across repeated evaluations and step sizes.
func TestEvaluatorMatchesRunCycle(t *testing.T) {
	nw := evalTestNetwork(t)
	hot := make([]float64, nw.NDie)
	cool := make([]float64, nw.NDie)
	for i := range hot {
		hot[i], cool[i] = 0.4, 0.1
	}
	hot[5] = 2.5
	entries := []ScheduleEntry{
		{Power: hot, Duration: 300e-6},
		{Power: cool, Duration: 300e-6},
	}
	leak := func(dst, die []float64) {
		for i, d := range die {
			dst[i] = 0.01 + 1e-4*d
		}
	}

	ev, err := NewEvaluator(nw)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []CycleOptions{
		{},
		{Dt: 10e-6},
		{Dt: 10e-6, Leak: leak},
		{}, // repeat: the cached integrator state must not leak between runs
	} {
		want, err := mustEvaluator(t, nw).RunCycle(entries, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.RunCycle(entries, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("dt=%g leak=%v: reused evaluator differs from a fresh one",
				opts.Dt, opts.Leak != nil)
		}
	}
}

// TestEvaluatorCachesFactorizations: the same step size reuses one
// integrator; a different step replaces it, so an evaluator holds one
// factorisation however many step sizes its callers send.
func TestEvaluatorCachesFactorizations(t *testing.T) {
	nw := evalTestNetwork(t)
	ev, err := NewEvaluator(nw)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ev.Transient(5e-6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ev.Transient(5e-6)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same dt gave two integrators")
	}
	c, err := ev.Transient(10e-6)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different dt shared an integrator")
	}
	if ev.tr != c {
		t.Error("the cache does not hold the most recent step's integrator")
	}
	d, err := ev.Transient(5e-6)
	if err != nil {
		t.Fatal(err)
	}
	if d == a || d == c {
		t.Error("returning to an earlier dt reused an evicted integrator")
	}
	if _, err := ev.Transient(0); err == nil {
		t.Error("non-positive dt accepted")
	}
	if ev.tr != d {
		t.Error("a rejected dt replaced the cached integrator")
	}
	if ev.ss == nil {
		t.Error("no steady solver")
	}
}

// TestEvaluatorAlternatingStepsMatchFresh: an evaluator whose callers
// alternate step sizes refactorises on every change and still gives
// results bitwise equal to a fresh evaluator per call, with and without
// the leakage loop.
func TestEvaluatorAlternatingStepsMatchFresh(t *testing.T) {
	nw := evalTestNetwork(t)
	hot := make([]float64, nw.NDie)
	for i := range hot {
		hot[i] = 0.3
	}
	hot[9] = 2
	entries := []ScheduleEntry{
		{Power: hot, Duration: 200e-6},
		{Power: make([]float64, nw.NDie), Duration: 100e-6},
	}
	leak := func(dst, die []float64) {
		for i, d := range die {
			dst[i] = 0.01 + 1e-4*d
		}
	}
	ev, err := NewEvaluator(nw)
	if err != nil {
		t.Fatal(err)
	}
	for i, dt := range []float64{5e-6, 10e-6, 5e-6, 2e-6, 10e-6, 5e-6} {
		opts := CycleOptions{Dt: dt}
		if i%2 == 1 {
			opts.Leak = leak
		}
		want, err := mustEvaluator(t, nw).RunCycle(entries, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.RunCycle(entries, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("call %d dt=%g: alternating evaluator differs from a fresh one", i, dt)
		}
	}
}
