package core

import (
	"math"
	"testing"
)

// TestReactiveHighTriggerNeverMigrates: with an unreachable threshold the
// chip never reconfigures, pays no penalty, and sits at the static peak.
func TestReactiveHighTriggerNeverMigrates(t *testing.T) {
	sys := buildSystem(t, 4)
	res, err := sys.RunReactive(ReactiveConfig{
		Scheme: XYShift(), TriggerC: 500, SimBlocks: 400, WarmupBlocks: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 0 {
		t.Fatalf("%d migrations with an unreachable trigger", res.Migrations)
	}
	if res.ThroughputPenalty != 0 {
		t.Fatalf("penalty %.4f without migrations", res.ThroughputPenalty)
	}
	base, err := sys.Run(RunConfig{Scheme: XYShift()})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PeakC-base.BaselinePeakC) > 0.5 {
		t.Fatalf("static reactive peak %.2f far from baseline %.2f", res.PeakC, base.BaselinePeakC)
	}
}

// TestReactiveLowTriggerMigratesEveryBlock: a trigger at ambient fires at
// every block boundary — the reactive policy degenerates into the paper's
// periodic one.
func TestReactiveLowTriggerMigratesEveryBlock(t *testing.T) {
	sys := buildSystem(t, 4)
	const blocks, warmup = 1600, 1200
	res, err := sys.RunReactive(ReactiveConfig{
		Scheme: XYShift(), TriggerC: 41, SimBlocks: blocks, WarmupBlocks: warmup,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != blocks-warmup {
		t.Fatalf("%d migrations, want %d (every post-warmup block)", res.Migrations, blocks-warmup)
	}
	periodic, err := sys.Run(RunConfig{Scheme: XYShift()})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PeakC-periodic.MigratedPeakC) > 1.0 {
		t.Fatalf("always-migrate reactive peak %.2f far from periodic %.2f",
			res.PeakC, periodic.MigratedPeakC)
	}
}

// TestReactiveTriggerMonotonicity: lowering the trigger can only increase
// migrations and can only lower (or hold) the peak.
func TestReactiveTriggerMonotonicity(t *testing.T) {
	sys := buildSystem(t, 4)
	base, err := sys.Run(RunConfig{Scheme: XYShift()})
	if err != nil {
		t.Fatal(err)
	}
	triggers := []float64{
		base.BaselinePeakC + 5,
		base.BaselinePeakC - 1,
		base.MigratedPeakC - 1,
	}
	var prevMig = -1
	var prevPeak = -math.MaxFloat64
	for i := len(triggers) - 1; i >= 0; i-- { // ascending trigger order
		res, err := sys.RunReactive(ReactiveConfig{
			Scheme: XYShift(), TriggerC: triggers[i], SimBlocks: 1200, WarmupBlocks: 800,
		})
		if err != nil {
			t.Fatal(err)
		}
		if prevMig >= 0 && res.Migrations > prevMig {
			t.Fatalf("higher trigger %.1f gave more migrations (%d > %d)",
				triggers[i], res.Migrations, prevMig)
		}
		if res.PeakC < prevPeak-0.2 {
			t.Fatalf("higher trigger %.1f gave lower peak (%.2f < %.2f)",
				triggers[i], res.PeakC, prevPeak)
		}
		prevMig, prevPeak = res.Migrations, res.PeakC
	}
}

// TestReactiveCapsTemperature: for any trigger between the migrated and
// static peaks, the controller keeps the post-warmup peak within one
// block's heating (plus sensor LSB) of the trigger, at no more than the
// periodic policy's throughput cost. The firing rate itself is emergent —
// bang-bang control may even park at a rigidly-moved placement that
// happens to sit below the trigger and stop migrating entirely.
func TestReactiveCapsTemperature(t *testing.T) {
	sys := buildSystem(t, 4)
	periodic, err := sys.Run(RunConfig{Scheme: XYShift()})
	if err != nil {
		t.Fatal(err)
	}
	const blocks, warmup = 1600, 1200
	lo, hi := periodic.MigratedPeakC, periodic.BaselinePeakC
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		trigger := lo + frac*(hi-lo)
		res, err := sys.RunReactive(ReactiveConfig{
			Scheme: XYShift(), TriggerC: trigger, SimBlocks: blocks, WarmupBlocks: warmup,
			SensorQuantC: 0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.PeakC > trigger+1.5 {
			t.Errorf("trigger %.2f: post-warmup peak %.2f overshoots the cap", trigger, res.PeakC)
		}
		if res.ThroughputPenalty > periodic.ThroughputPenalty+1e-9 {
			t.Errorf("trigger %.2f: penalty %.4f exceeds periodic %.4f",
				trigger, res.ThroughputPenalty, periodic.ThroughputPenalty)
		}
		if len(res.BlockPeaks) != blocks {
			t.Fatalf("%d block peaks recorded, want %d", len(res.BlockPeaks), blocks)
		}
	}
}

// TestReactiveDeterminism: identical configs give identical traces.
func TestReactiveDeterminism(t *testing.T) {
	run := func() ReactiveResult {
		sys := buildSystem(t, 4)
		res, err := sys.RunReactive(ReactiveConfig{
			Scheme: Rot(), TriggerC: 55, SimBlocks: 400, WarmupBlocks: 200,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Migrations != b.Migrations || a.PeakC != b.PeakC {
		t.Fatalf("reactive runs differ: %d/%.4f vs %d/%.4f",
			a.Migrations, a.PeakC, b.Migrations, b.PeakC)
	}
	for i := range a.BlockPeaks {
		if a.BlockPeaks[i] != b.BlockPeaks[i] {
			t.Fatalf("block peak %d differs", i)
		}
	}
}

// TestReactivePeaksEvery: the timeline knob only thins what is reported —
// scalar statistics and the migration trace are bitwise unchanged, the
// downsampled timeline is the every-block timeline's every-k-th entry,
// and a negative knob omits the timeline entirely.
func TestReactivePeaksEvery(t *testing.T) {
	sys := buildSystem(t, 4)
	ch, err := sys.Characterize(Rot())
	if err != nil {
		t.Fatal(err)
	}
	base := ReactiveConfig{Scheme: Rot(), TriggerC: 55, SimBlocks: 400, WarmupBlocks: 200}
	full, err := sys.EvaluateReactive(ch, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.BlockPeaks) != base.SimBlocks {
		t.Fatalf("default recorded %d peaks, want %d", len(full.BlockPeaks), base.SimBlocks)
	}

	down := base
	down.PeaksEvery = 7
	got, err := sys.EvaluateReactive(ch, down)
	if err != nil {
		t.Fatal(err)
	}
	if got.PeakC != full.PeakC || got.MeanC != full.MeanC || got.Migrations != full.Migrations {
		t.Fatal("downsampling changed the scalar statistics")
	}
	want := (base.SimBlocks + 6) / 7
	if len(got.BlockPeaks) != want {
		t.Fatalf("PeaksEvery=7 recorded %d peaks, want %d", len(got.BlockPeaks), want)
	}
	for i, p := range got.BlockPeaks {
		if p != full.BlockPeaks[7*i] {
			t.Fatalf("downsampled peak %d = %g, want full[%d] = %g", i, p, 7*i, full.BlockPeaks[7*i])
		}
	}

	off := base
	off.PeaksEvery = -1
	none, err := sys.EvaluateReactive(ch, off)
	if err != nil {
		t.Fatal(err)
	}
	if none.BlockPeaks != nil {
		t.Fatalf("PeaksEvery=-1 still recorded %d peaks", len(none.BlockPeaks))
	}
	if none.PeakC != full.PeakC || none.Migrations != full.Migrations {
		t.Fatal("omitting the timeline changed the scalar statistics")
	}
}

// TestReactiveValidation covers the error paths.
func TestReactiveValidation(t *testing.T) {
	sys := buildSystem(t, 4)
	if _, err := sys.RunReactive(ReactiveConfig{TriggerC: 60}); err == nil {
		t.Fatal("nil scheme accepted")
	}
	bad, err := sys.Clone()
	if err != nil {
		t.Fatal(err)
	}
	bad.ClockHz = 0
	if _, err := bad.RunReactive(ReactiveConfig{Scheme: Rot(), TriggerC: 60}); err == nil {
		t.Fatal("invalid system accepted")
	}
}
