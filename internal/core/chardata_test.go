package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"
)

// TestCharDataGobRoundTripEvaluatesIdentically: a characterization
// serialized through gob and decoded again yields
// evaluations — periodic and reactive — bitwise identical to the
// original's. This is the property the sweep layer's disk cache rests on.
func TestCharDataGobRoundTripEvaluatesIdentically(t *testing.T) {
	sys := buildSystem(t, 4)
	ch, err := sys.Characterize(XYShift())
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ch); err != nil {
		t.Fatal(err)
	}
	var restored Characterization
	if err := gob.NewDecoder(&buf).Decode(&restored); err != nil {
		t.Fatal(err)
	}
	if err := restored.Validate(sys.Grid.N()); err != nil {
		t.Fatal(err)
	}
	ch2 := &restored

	for _, cfg := range []EvalConfig{
		{BlocksPerPeriod: 1},
		{BlocksPerPeriod: 8, ExcludeMigrationEnergy: true},
	} {
		a, err := sys.Evaluate(ch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sys.Evaluate(ch2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("blocks %d: evaluation of restored characterization differs", cfg.BlocksPerPeriod)
		}
	}

	ra, err := sys.EvaluateReactive(ch, ReactiveConfig{
		Scheme: XYShift(), TriggerC: 55, SimBlocks: 200, WarmupBlocks: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := sys.EvaluateReactive(ch2, ReactiveConfig{
		Scheme: XYShift(), TriggerC: 55, SimBlocks: 200, WarmupBlocks: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Fatal("reactive evaluation of restored characterization differs")
	}
}

// TestFromDataRejectsMismatch: reconstruction under the wrong scheme or
// with malformed data fails loudly.
func TestFromDataRejectsMismatch(t *testing.T) {
	sys := buildSystem(t, 4)
	ch, err := sys.Characterize(Rot())
	if err != nil {
		t.Fatal(err)
	}
	d := ch.Data()
	if _, err := FromData(XYShift(), d); err == nil {
		t.Fatal("scheme mismatch accepted")
	}
	if _, err := FromData(Scheme{Name: d.SchemeName}, d); err == nil {
		t.Fatal("scheme without step function accepted")
	}
	if _, err := FromData(Rot(), nil); err == nil {
		t.Fatal("nil data accepted")
	}
	if err := (&Characterization{}).Validate(sys.Grid.N()); err == nil {
		t.Fatal("empty data validated")
	}
}

// TestEvaluateReactiveMatchesFused: splitting reactive evaluation off a
// shared characterization is bitwise identical to the fused RunReactive,
// and an EvaluateReactive under a mismatched scheme errors.
func TestEvaluateReactiveMatchesFused(t *testing.T) {
	cfg := ReactiveConfig{Scheme: XYShift(), TriggerC: 55, SimBlocks: 300, WarmupBlocks: 150}

	fused, err := buildSystem(t, 4).RunReactive(cfg)
	if err != nil {
		t.Fatal(err)
	}

	sys := buildSystem(t, 4)
	ch, err := sys.Characterize(XYShift())
	if err != nil {
		t.Fatal(err)
	}
	split, err := sys.EvaluateReactive(ch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fused, split) {
		t.Fatalf("split reactive differs from fused: %+v vs %+v",
			split.PeakC, fused.PeakC)
	}
	// A second evaluation against the same characterization must not be
	// perturbed by the first.
	again, err := sys.EvaluateReactive(ch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(split, again) {
		t.Fatal("repeated reactive evaluation drifted")
	}

	if _, err := sys.EvaluateReactive(ch, ReactiveConfig{
		Scheme: Rot(), TriggerC: 55, SimBlocks: 100,
	}); err == nil {
		t.Fatal("scheme/characterization mismatch accepted")
	}
}

// TestCharDataValidateRejectsBadValues: a cached characterization whose
// energies are NaN, infinite or negative, or whose migration counts are
// negative, fails validation, so the cache recomputes it instead of
// evaluating it into NaN temperatures.
func TestCharDataValidateRejectsBadValues(t *testing.T) {
	const n = 4
	valid := func() *Characterization {
		return &Characterization{
			SchemeName:     "Rot",
			BaselineCycles: 100,
			BaselineBlockJ: []float64{1, 2, 0, 4},
			Legs: []LegActivity{{
				DecodeCycles: 100,
				DecodeBlockJ: []float64{1, 2, 3, 4},
				DecodeJ:      10,
				Migration:    MigrationStats{Cycles: 50, Phases: 2, Transfers: 4, StateFlitsMoved: 32},
				MigBlockJ:    []float64{0.5, 0, 0.5, 0},
				MigJ:         1,
			}},
		}
	}
	if err := valid().Validate(n); err != nil {
		t.Fatalf("valid data rejected: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for name, corrupt := range map[string]func(d *Characterization){
		"NaN baseline":          func(d *Characterization) { d.BaselineBlockJ[1] = nan },
		"+Inf baseline":         func(d *Characterization) { d.BaselineBlockJ[3] = inf },
		"negative baseline":     func(d *Characterization) { d.BaselineBlockJ[0] = -1 },
		"NaN decode block":      func(d *Characterization) { d.Legs[0].DecodeBlockJ[2] = nan },
		"-Inf decode block":     func(d *Characterization) { d.Legs[0].DecodeBlockJ[0] = -inf },
		"negative decode block": func(d *Characterization) { d.Legs[0].DecodeBlockJ[3] = -1e-12 },
		"NaN decode total":      func(d *Characterization) { d.Legs[0].DecodeJ = nan },
		"negative decode total": func(d *Characterization) { d.Legs[0].DecodeJ = -10 },
		"NaN migration block":   func(d *Characterization) { d.Legs[0].MigBlockJ[1] = nan },
		"negative migration":    func(d *Characterization) { d.Legs[0].MigBlockJ[2] = -0.5 },
		"+Inf migration total":  func(d *Characterization) { d.Legs[0].MigJ = inf },
		"negative transfers":    func(d *Characterization) { d.Legs[0].Migration.Transfers = -1 },
		"negative state flits":  func(d *Characterization) { d.Legs[0].Migration.StateFlitsMoved = -32 },
	} {
		d := valid()
		corrupt(d)
		if err := d.Validate(n); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}
