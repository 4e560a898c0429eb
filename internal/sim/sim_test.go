// Package sim_test holds black-box tests of the Lab's sweep pipeline:
// point order, determinism across worker counts, shared builds and
// characterizations, validation and cancellation. They drive only the
// exported hotnoc API; tests of the scheduler's internals (groupPoints)
// and of the caches live beside that code in package hotnoc.
package sim_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"hotnoc"
	"hotnoc/internal/chipcfg"
	"hotnoc/internal/core"
)

// Scaled-down configurations keep the full pipeline under test without
// paper-scale runtimes.
const testScale = 8

// TestRunMatchesSerialWalk: the concurrent Lab's outcomes are bitwise
// identical to a serial walk of the same grid on an independently built
// system, and arrive in point order.
func TestRunMatchesSerialWalk(t *testing.T) {
	pts := hotnoc.SweepGrid([]string{"A"}, []core.Scheme{core.XYShift(), core.Rot()}, []int{1, 4})
	pts = append(pts, hotnoc.SweepPoint{
		Config: "A", Scheme: core.Rot(), Blocks: 1, ExcludeMigrationEnergy: true,
	})
	outs, err := hotnoc.NewLab(hotnoc.WithScale(testScale), hotnoc.WithWorkers(4)).
		SweepAll(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(pts) {
		t.Fatalf("%d outcomes for %d points", len(outs), len(pts))
	}

	spec, err := chipcfg.ByName("A")
	if err != nil {
		t.Fatal(err)
	}
	built, err := spec.Scaled(testScale).Build()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		got := outs[i].Point
		if got.Config != p.Config || got.Scheme.Name != p.Scheme.Name ||
			got.Blocks != p.Blocks || got.ExcludeMigrationEnergy != p.ExcludeMigrationEnergy {
			t.Fatalf("outcome %d is for point %+v, want %+v", i, got, p)
		}
		serial, err := built.System.Run(core.RunConfig{
			Scheme:                 p.Scheme,
			BlocksPerPeriod:        p.Blocks,
			ExcludeMigrationEnergy: p.ExcludeMigrationEnergy,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, outs[i].Result) {
			t.Errorf("point %d (%s/%s/b%d): parallel result differs from serial walk",
				i, p.Config, p.Scheme.Name, p.Blocks)
		}
	}
}

// TestRunDeterministicAcrossWorkerCounts: the same grid gives identical
// outcomes no matter how it is scheduled.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	pts := hotnoc.SweepGrid([]string{"B"}, []core.Scheme{core.XMirrorScheme(), core.RightShift()}, []int{1, 2})
	one, err := hotnoc.NewLab(hotnoc.WithScale(testScale), hotnoc.WithWorkers(1)).
		SweepAll(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	many, err := hotnoc.NewLab(hotnoc.WithScale(testScale), hotnoc.WithWorkers(8)).
		SweepAll(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if !reflect.DeepEqual(one[i].Result, many[i].Result) {
			t.Errorf("point %d differs between 1-worker and 8-worker runs", i)
		}
	}
}

// TestRunSharesBuilds: outcomes of the same configuration share one
// calibrated build.
func TestRunSharesBuilds(t *testing.T) {
	pts := hotnoc.SweepGrid([]string{"C"}, []core.Scheme{core.XYShift(), core.XMirrorScheme()}, nil)
	outs, err := hotnoc.NewLab(hotnoc.WithScale(testScale)).SweepAll(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Built == nil || outs[0].Built != outs[1].Built {
		t.Error("outcomes of one configuration do not share a build")
	}
}

// TestRunUnknownConfig: build errors surface with the offending cell.
func TestRunUnknownConfig(t *testing.T) {
	_, err := hotnoc.NewLab(hotnoc.WithScale(testScale)).SweepAll(context.Background(),
		[]hotnoc.SweepPoint{{Config: "Z", Scheme: core.Rot()}})
	if err == nil {
		t.Fatal("unknown configuration accepted")
	}
}

// TestRunFailsFastOnBadPoints: malformed grids are rejected before any
// build or characterization starts, and the error names the offending
// point index.
func TestRunFailsFastOnBadPoints(t *testing.T) {
	r := hotnoc.NewLab(hotnoc.WithScale(testScale), hotnoc.WithProgress(func(ev hotnoc.Event) {
		t.Errorf("pipeline event %v fired for an invalid grid", ev)
	}))
	cases := []struct {
		name string
		pts  []hotnoc.SweepPoint
		frag string
	}{
		{
			"unknown config",
			[]hotnoc.SweepPoint{{Config: "A", Scheme: core.Rot()}, {Config: "Z", Scheme: core.Rot()}},
			"point 1",
		},
		{
			"negative blocks",
			[]hotnoc.SweepPoint{{Config: "A", Scheme: core.Rot()}, {Config: "A", Scheme: core.XYShift(), Blocks: -3}},
			"point 1: negative migration period",
		},
		{
			"nil scheme",
			[]hotnoc.SweepPoint{{Config: "A", Scheme: core.Scheme{Name: "custom"}}},
			"point 0",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := r.SweepAll(context.Background(), tc.pts)
			if err == nil {
				t.Fatal("bad grid accepted")
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not name the bad point (%q)", err, tc.frag)
			}
		})
	}
	if n := r.Decodes(); n != 0 {
		t.Fatalf("%d decodes performed for invalid grids, want 0", n)
	}
}

// TestStreamYieldsInPointOrder: the streaming sequence delivers every
// outcome, in grid order, while work completes concurrently.
func TestStreamYieldsInPointOrder(t *testing.T) {
	pts := hotnoc.SweepGrid([]string{"A"}, []core.Scheme{core.XYShift(), core.Rot()}, []int{1, 4})
	r := hotnoc.NewLab(hotnoc.WithScale(testScale), hotnoc.WithWorkers(4))
	i := 0
	for out, err := range r.Sweep(context.Background(), pts) {
		if err != nil {
			t.Fatal(err)
		}
		p := pts[i]
		if out.Point.Config != p.Config || out.Point.Scheme.Name != p.Scheme.Name ||
			out.Point.Blocks != p.Blocks {
			t.Fatalf("stream position %d carries %s/%s/b%d, want %s/%s/b%d", i,
				out.Point.Config, out.Point.Scheme.Name, out.Point.Blocks,
				p.Config, p.Scheme.Name, p.Blocks)
		}
		i++
	}
	if i != len(pts) {
		t.Fatalf("stream yielded %d outcomes, want %d", i, len(pts))
	}
}

// TestStreamEarlyBreak: breaking out of the sequence cancels outstanding
// work and returns without deadlocking.
func TestStreamEarlyBreak(t *testing.T) {
	pts := hotnoc.SweepGrid([]string{"A"}, core.AllSchemes(), []int{1, 4})
	r := hotnoc.NewLab(hotnoc.WithScale(testScale), hotnoc.WithWorkers(2))
	n := 0
	for _, err := range r.Sweep(context.Background(), pts) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("consumed %d outcomes before break, want 2", n)
	}
	// The Lab stays usable after an abandoned stream.
	if _, err := r.SweepAll(context.Background(), pts[:2]); err != nil {
		t.Fatal(err)
	}
}

// TestStreamCancelledContext: the stream surfaces context cancellation as
// its final yielded error.
func TestStreamCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var last error
	n := 0
	for _, err := range hotnoc.NewLab(hotnoc.WithScale(testScale)).
		Sweep(ctx, hotnoc.SweepGrid([]string{"A"}, core.AllSchemes(), nil)) {
		last = err
		n++
	}
	if n != 1 || !errors.Is(last, context.Canceled) {
		t.Fatalf("stream yielded %d times with final err %v, want one context.Canceled", n, last)
	}
}

// TestRunCancelledContext: a cancelled context stops the sweep without
// doing the work.
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := hotnoc.NewLab(hotnoc.WithScale(testScale)).SweepAll(ctx,
		hotnoc.SweepGrid([]string{"A"}, core.AllSchemes(), nil))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunEmptyGrid: no points, no work, no error.
func TestRunEmptyGrid(t *testing.T) {
	outs, err := hotnoc.NewLab().SweepAll(context.Background(), nil)
	if err != nil || outs != nil {
		t.Fatalf("empty grid gave (%v, %v)", outs, err)
	}
}

// TestGridOrder: the cross product is configuration-major with schemes
// then periods minor.
func TestGridOrder(t *testing.T) {
	pts := hotnoc.SweepGrid([]string{"A", "B"}, []core.Scheme{core.Rot(), core.XYShift()}, []int{1, 4})
	want := []struct {
		cfg    string
		scheme string
		blocks int
	}{
		{"A", "Rot", 1}, {"A", "Rot", 4}, {"A", "X-Y Shift", 1}, {"A", "X-Y Shift", 4},
		{"B", "Rot", 1}, {"B", "Rot", 4}, {"B", "X-Y Shift", 1}, {"B", "X-Y Shift", 4},
	}
	if len(pts) != len(want) {
		t.Fatalf("%d points, want %d", len(pts), len(want))
	}
	for i, w := range want {
		if pts[i].Config != w.cfg || pts[i].Scheme.Name != w.scheme || pts[i].Blocks != w.blocks {
			t.Errorf("point %d is %s/%s/b%d, want %s/%s/b%d", i,
				pts[i].Config, pts[i].Scheme.Name, pts[i].Blocks, w.cfg, w.scheme, w.blocks)
		}
	}
}
