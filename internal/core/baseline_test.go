package core

import (
	"math"
	"slices"
	"testing"
)

// TestBaselineMemo: a System memoizes the static-baseline cycle for the
// characterization it last saw. A second Evaluate with bit-identical
// baseline inputs is served from the memo and returns a bit-identical
// baseline; one whose BaselineBlockJ differs in a single bit recomputes,
// and gets exactly what a System with an empty memo computes for it.
func TestBaselineMemo(t *testing.T) {
	sys := buildSystem(t, 4)
	ch, err := sys.Characterize(XYShift())
	if err != nil {
		t.Fatal(err)
	}
	first, err := sys.Evaluate(ch, EvalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	memo := sys.baseMemo
	if memo == nil {
		t.Fatal("Evaluate left no baseline memo")
	}

	// Equal inputs (a copy, not the same slice): a memo hit.
	same := *ch
	same.BaselineBlockJ = slices.Clone(ch.BaselineBlockJ)
	again, err := sys.Evaluate(&same, EvalConfig{BlocksPerPeriod: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sys.baseMemo != memo {
		t.Fatal("equal baseline inputs recomputed the baseline")
	}
	assertSameBaseline(t, "memo hit", again, first)

	// One bit off in one block's energy: the memo must not serve it.
	off := *ch
	off.BaselineBlockJ = slices.Clone(ch.BaselineBlockJ)
	off.BaselineBlockJ[3] = math.Float64frombits(math.Float64bits(off.BaselineBlockJ[3]) ^ 1)
	got, err := sys.Evaluate(&off, EvalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.baseMemo == memo {
		t.Fatal("a baseline input one bit off was served from the memo")
	}
	if !slices.Equal(sys.baseMemo.blockJ, off.BaselineBlockJ) {
		t.Fatal("the recomputed memo does not hold the new baseline inputs")
	}
	sys.baseMemo = nil
	want, err := sys.Evaluate(&off, EvalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameBaseline(t, "recompute", got, want)
}

// assertSameBaseline compares the baseline arm of two results bit for bit.
func assertSameBaseline(t *testing.T, what string, got, want RunResult) {
	t.Helper()
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !bits(got.BaselinePeakC, want.BaselinePeakC) || got.BaselinePeakAt != want.BaselinePeakAt ||
		!bits(got.BaselineMeanC, want.BaselineMeanC) ||
		!slices.EqualFunc(got.BaselineMaxTemps, want.BaselineMaxTemps, bits) {
		t.Fatalf("%s: baseline %g °C at %d (mean %g) differs from %g °C at %d (mean %g)", what,
			got.BaselinePeakC, got.BaselinePeakAt, got.BaselineMeanC,
			want.BaselinePeakC, want.BaselinePeakAt, want.BaselineMeanC)
	}
}
