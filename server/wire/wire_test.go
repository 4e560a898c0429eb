package wire

import (
	"encoding/json"
	"strings"
	"testing"

	"hotnoc"
	"hotnoc/internal/core"
)

// TestPointSpecRoundTrip: both point kinds survive wire form and JSON
// intact — kind, scheme name, and every policy parameter.
func TestPointSpecRoundTrip(t *testing.T) {
	pts := []hotnoc.SweepPoint{
		hotnoc.PeriodicPoint("A", core.XYShift(), 4),
		{Config: "E", Scheme: core.Rot(), Blocks: 1, ExcludeMigrationEnergy: true},
		hotnoc.ReactivePoint("B", core.ReactiveConfig{
			Scheme: core.Rot(), TriggerC: 83.5, SimBlocks: 300, WarmupBlocks: 150,
			SensorQuantC: 0.5, Dt: 1e-5, PeaksEvery: 16,
		}),
		// Negative PeaksEvery (timeline opt-out) is a meaningful non-zero
		// value and must survive omitempty.
		hotnoc.ReactivePoint("C", core.ReactiveConfig{
			Scheme: core.XYShift(), TriggerC: 80, PeaksEvery: -1,
		}),
	}
	for i, p := range pts {
		spec := FromPoint(p)
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var back PointSpec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		got, err := back.Point()
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		if got.Config != p.Config || got.Scheme.Name != p.Scheme.Name ||
			got.Blocks != p.Blocks || got.ExcludeMigrationEnergy != p.ExcludeMigrationEnergy ||
			got.Kind() != p.Kind() {
			t.Fatalf("point %d did not round-trip: got %+v, want %+v", i, got, p)
		}
		if p.Kind() == hotnoc.KindReactive {
			w, g := *p.Reactive, *got.Reactive
			if g.TriggerC != w.TriggerC || g.SimBlocks != w.SimBlocks ||
				g.WarmupBlocks != w.WarmupBlocks || g.SensorQuantC != w.SensorQuantC ||
				g.Dt != w.Dt || g.PeaksEvery != w.PeaksEvery {
				t.Fatalf("point %d reactive parameters did not round-trip: got %+v, want %+v", i, g, w)
			}
			if g.Scheme.Name != p.Scheme.Name || g.Scheme.StepFn == nil {
				t.Fatalf("point %d reactive scheme not resolved server-side", i)
			}
		}
	}
}

// TestPointSpecRejectsMalformedKinds: inconsistent kind/payload pairs and
// unknown kinds fail to resolve instead of silently running the wrong
// experiment.
func TestPointSpecRejectsMalformedKinds(t *testing.T) {
	cases := []struct {
		name string
		spec PointSpec
		want string
	}{
		{"unknown kind", PointSpec{Config: "A", Scheme: "Rot", Kind: "quantum"}, "unknown point kind"},
		{"reactive without params", PointSpec{Config: "A", Scheme: "Rot", Kind: KindReactive}, "no reactive parameters"},
		{"periodic with params", PointSpec{Config: "A", Scheme: "Rot", Reactive: &ReactiveSpec{TriggerC: 80}}, "carries reactive parameters"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.spec.Point(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("malformed spec accepted (err %v)", err)
			}
		})
	}
}

// TestOutcomeMsgArms: the wire outcome emits exactly the result arm
// matching the point's kind — a reactive outcome omits the all-zero
// periodic result, a periodic outcome carries no reactive field.
func TestOutcomeMsgArms(t *testing.T) {
	reactive := OutcomeMsg{
		Index:    0,
		Point:    PointSpec{Config: "A", Scheme: "Rot", Kind: KindReactive, Reactive: &ReactiveSpec{TriggerC: 80}},
		Reactive: &core.ReactiveResult{PeakC: 81.5, Migrations: 3},
	}
	data, err := json.Marshal(reactive)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"result"`) {
		t.Fatalf("reactive outcome carries a periodic result arm: %s", data)
	}
	periodic := OutcomeMsg{
		Index:  0,
		Point:  PointSpec{Config: "A", Scheme: "Rot"},
		Result: core.RunResult{BaselinePeakC: 85},
	}
	data, err = json.Marshal(periodic)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"result"`) || strings.Contains(string(data), `"reactive"`) {
		t.Fatalf("periodic outcome arms wrong: %s", data)
	}
}
