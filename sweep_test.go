package hotnoc

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestSweepFigure1GridMatchesSerial is the acceptance check for the
// concurrent sweep engine: the full Figure 1 grid — all five schemes on
// all five configurations — run concurrently, with every outcome bitwise
// identical to a serial System.Run walk over the same calibrated builds.
func TestSweepFigure1GridMatchesSerial(t *testing.T) {
	configs := []string{"A", "B", "C", "D", "E"}
	pts := SweepGrid(configs, Schemes(), nil)
	if len(pts) != 25 {
		t.Fatalf("%d grid points, want 25", len(pts))
	}
	outs, err := NewLab(WithScale(testScale)).SweepAll(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Point.Config != pts[i].Config || o.Point.Scheme.Name != pts[i].Scheme.Name {
			t.Fatalf("outcome %d out of order: %s/%s", i, o.Point.Config, o.Point.Scheme.Name)
		}
		serial, err := o.Built.System.Run(RunConfig{Scheme: o.Point.Scheme})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, o.Result) {
			t.Errorf("%s/%s: concurrent sweep result differs from serial run",
				o.Point.Config, o.Point.Scheme.Name)
		}
		if o.Result.ReductionC != serial.BaselinePeakC-serial.MigratedPeakC {
			t.Errorf("%s/%s: inconsistent reduction", o.Point.Config, o.Point.Scheme.Name)
		}
	}
}

// TestSweepCancellation: a Lab sweep propagates context cancellation.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	lab := NewLab(WithScale(testScale))
	if _, err := lab.SweepAll(ctx, SweepGrid([]string{"A"}, Schemes(), nil)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSweepRunnerReuse: a Lab reuses its build cache across sweeps.
func TestSweepRunnerReuse(t *testing.T) {
	lab := NewLab(WithScale(testScale))
	first, err := lab.SweepAll(context.Background(), []SweepPoint{{Config: "D", Scheme: XYShift()}})
	if err != nil {
		t.Fatal(err)
	}
	second, err := lab.SweepAll(context.Background(), []SweepPoint{{Config: "D", Scheme: Rot()}})
	if err != nil {
		t.Fatal(err)
	}
	if first[0].Built != second[0].Built {
		t.Error("lab rebuilt configuration D on the second sweep")
	}
}
