package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// sameReactive reports the first field in which got and want differ,
// comparing every float by its bits and the timeline entry by entry (nil
// and empty told apart), or "" when they are identical.
func sameReactive(got, want ReactiveResult) string {
	for _, f := range []struct {
		name   string
		gv, wv float64
	}{{"PeakC", got.PeakC, want.PeakC}, {"MeanC", got.MeanC, want.MeanC}, {"ThroughputPenalty", got.ThroughputPenalty, want.ThroughputPenalty}} {
		if math.Float64bits(f.gv) != math.Float64bits(f.wv) {
			return fmt.Sprintf("%s %v, alone %v", f.name, f.gv, f.wv)
		}
	}
	if got.Migrations != want.Migrations {
		return fmt.Sprintf("Migrations %d, alone %d", got.Migrations, want.Migrations)
	}
	if (got.BlockPeaks == nil) != (want.BlockPeaks == nil) || len(got.BlockPeaks) != len(want.BlockPeaks) {
		return fmt.Sprintf("BlockPeaks of %d entries (nil %v), alone %d (nil %v)",
			len(got.BlockPeaks), got.BlockPeaks == nil, len(want.BlockPeaks), want.BlockPeaks == nil)
	}
	for i, p := range got.BlockPeaks {
		if math.Float64bits(p) != math.Float64bits(want.BlockPeaks[i]) {
			return fmt.Sprintf("BlockPeaks[%d] %v, alone %v", i, p, want.BlockPeaks[i])
		}
	}
	return ""
}

// randomReactiveSet draws k configurations of scheme with random
// triggers around the chip's operating range and mixed horizons,
// warmups (some clamped), sensor resolutions, timeline strides (negative
// ones included) and steps (the default among them).
func randomReactiveSet(r *rand.Rand, scheme Scheme, k int, lo, hi float64) []ReactiveConfig {
	cfgs := make([]ReactiveConfig, k)
	for i := range cfgs {
		blocks := 1 + r.Intn(160)
		cfgs[i] = ReactiveConfig{
			Scheme:       scheme,
			TriggerC:     lo + (hi-lo)*r.Float64(),
			SimBlocks:    blocks,
			WarmupBlocks: r.Intn(blocks + 10),
			SensorQuantC: []float64{0, 0.05, 0.25, 1}[r.Intn(4)],
			PeaksEvery:   []int{-3, -1, 0, 1, 2, 7}[r.Intn(6)],
			Dt:           []float64{0, 5e-6, 1e-5, 2.5e-6}[r.Intn(4)],
		}
	}
	return cfgs
}

// TestReactiveSetMatchesIndependent: every run of a lockstep set is
// bitwise its lone EvaluateReactive, field by field, for random sets of
// 1 to 9 runs mixing triggers (so migration decisions diverge),
// horizons, warmups, sensor resolutions, timeline strides and steps, on
// two schemes.
func TestReactiveSetMatchesIndependent(t *testing.T) {
	sys := buildSystem(t, 4)
	periodic, err := sys.Run(RunConfig{Scheme: XYShift()})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := periodic.MigratedPeakC-1, periodic.BaselinePeakC+1
	r := rand.New(rand.NewSource(26))
	for _, scheme := range []Scheme{XYShift(), Rot()} {
		ch, err := sys.Characterize(scheme)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 9; k++ {
			cfgs := randomReactiveSet(r, scheme, k, lo, hi)
			got, err := sys.EvaluateReactiveSet(ch, cfgs)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != k {
				t.Fatalf("%s set of %d: %d results", scheme.Name, k, len(got))
			}
			for i, cfg := range cfgs {
				want, err := sys.EvaluateReactive(ch, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if d := sameReactive(got[i], want); d != "" {
					t.Fatalf("%s set of %d, run %d (%+v): %s", scheme.Name, k, i, cfg, d)
				}
			}
		}
	}
}

// TestReactiveSetConcurrent: sets evaluated concurrently on one System,
// sharing its pooled evaluators, match their serial evaluation bit for
// bit. Run with -race.
func TestReactiveSetConcurrent(t *testing.T) {
	sys := buildSystem(t, 4)
	ch, err := sys.Characterize(XYShift())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(27))
	sets := make([][]ReactiveConfig, 6)
	want := make([][]ReactiveResult, len(sets))
	for i := range sets {
		sets[i] = randomReactiveSet(r, XYShift(), 1+i%5, 50, 70)
		if want[i], err = sys.EvaluateReactiveSet(ch, sets[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]string, len(sets))
	for i := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := sys.EvaluateReactiveSet(ch, sets[i])
			if err != nil {
				errs[i] = err.Error()
				return
			}
			for j := range got {
				if d := sameReactive(got[j], want[i][j]); d != "" {
					errs[i] = fmt.Sprintf("run %d: %s", j, d)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, e := range errs {
		if e != "" {
			t.Errorf("set %d: %s", i, e)
		}
	}
}

// TestReactiveRejectsNonFinite: a NaN or infinite trigger, sensor
// resolution or step is an error from EvaluateReactive and fails a whole
// set before any run starts.
func TestReactiveRejectsNonFinite(t *testing.T) {
	sys := buildSystem(t, 4)
	ch, err := sys.Characterize(Rot())
	if err != nil {
		t.Fatal(err)
	}
	good := ReactiveConfig{Scheme: Rot(), TriggerC: 55, SimBlocks: 20}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, field := range []string{"trigger", "sensor resolution", "step"} {
			cfg := good
			switch field {
			case "trigger":
				cfg.TriggerC = bad
			case "sensor resolution":
				cfg.SensorQuantC = bad
			case "step":
				cfg.Dt = bad
			}
			if _, err := sys.EvaluateReactive(ch, cfg); err == nil {
				t.Errorf("%s %v accepted", field, bad)
			}
			if res, err := sys.EvaluateReactiveSet(ch, []ReactiveConfig{good, cfg}); err == nil || res != nil {
				t.Errorf("set with %s %v: results %v, error %v", field, bad, res, err)
			}
		}
	}
}

// TestReactiveSetErrorNamesRun: a set whose third configuration is bad
// fails with a *ReactiveRunError naming index 2 and wrapping the cause,
// while the lone EvaluateReactive of the same configuration reports the
// cause alone.
func TestReactiveSetErrorNamesRun(t *testing.T) {
	sys := buildSystem(t, 4)
	ch, err := sys.Characterize(Rot())
	if err != nil {
		t.Fatal(err)
	}
	good := ReactiveConfig{Scheme: Rot(), TriggerC: 55, SimBlocks: 20}
	bad := good
	bad.TriggerC = math.NaN()
	_, err = sys.EvaluateReactiveSet(ch, []ReactiveConfig{good, good, bad, good})
	var re *ReactiveRunError
	if !errors.As(err, &re) || re.Run != 2 {
		t.Fatalf("set error %v does not name run 2", err)
	}
	_, lone := sys.EvaluateReactive(ch, bad)
	if lone == nil || errors.As(lone, &re) || lone.Error() != re.Err.Error() {
		t.Fatalf("lone error %v, want the set's cause %v unwrapped", lone, re.Err)
	}
}

// TestReactiveTimelineStrideExtremes: the preallocated timeline is sized
// without overflow and capped, whatever horizon and stride a request
// carries, and a stride of math.MaxInt records block 0 alone in a set as
// alone.
func TestReactiveTimelineStrideExtremes(t *testing.T) {
	for _, tc := range []struct{ blocks, every, want int }{
		{1, 1, 1},
		{2048, 1, 2048},
		{2048, 3, 683},
		{2048, math.MaxInt, 1},
		{2, math.MaxInt, 1},
		{3, math.MaxInt - 1, 1},
		{math.MaxInt, math.MaxInt, 1},
		{math.MaxInt, 1, maxTimelinePrealloc},
		{math.MaxInt, 1 << 20, maxTimelinePrealloc},
	} {
		if got := timelineCap(ReactiveConfig{SimBlocks: tc.blocks, PeaksEvery: tc.every}); got != tc.want {
			t.Errorf("timelineCap(SimBlocks %d, PeaksEvery %d) = %d, want %d", tc.blocks, tc.every, got, tc.want)
		}
	}
	sys := buildSystem(t, 4)
	ch, err := sys.Characterize(XYShift())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ReactiveConfig{Scheme: XYShift(), TriggerC: 55, SimBlocks: 2, PeaksEvery: math.MaxInt}
	lone, err := sys.EvaluateReactive(ch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(lone.BlockPeaks) != 1 {
		t.Fatalf("stride MaxInt recorded %d entries, want 1", len(lone.BlockPeaks))
	}
	other := cfg
	other.PeaksEvery = 1
	set, err := sys.EvaluateReactiveSet(ch, []ReactiveConfig{other, cfg})
	if err != nil {
		t.Fatal(err)
	}
	if d := sameReactive(set[1], lone); d != "" {
		t.Fatalf("stride MaxInt in a set: %s", d)
	}
}

// TestEvaluateReactiveAllocs pins warm reactive sets of k runs at the
// 3+k allocations they make: the legs' power maps (two), the set's
// results (a lone EvaluateReactive's one-element array) and each run's
// timeline. Lanes and the warm start live in the evaluator's scratch, so
// neither a set's width nor its lane refills (k = 5 and 8) may allocate.
func TestEvaluateReactiveAllocs(t *testing.T) {
	sys := buildSystem(t, 4)
	ch, err := sys.Characterize(XYShift())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ k, want int }{{1, 4}, {4, 7}, {5, 8}, {8, 11}} {
		cfgs := make([]ReactiveConfig, tc.k)
		for i := range cfgs {
			cfgs[i] = ReactiveConfig{Scheme: XYShift(), TriggerC: 55 + float64(i)/4}
		}
		run := func() {
			if tc.k == 1 {
				_, err = sys.EvaluateReactive(ch, cfgs[0])
			} else {
				_, err = sys.EvaluateReactiveSet(ch, cfgs)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		run()
		runtime.GC() // the first GC's mark workers allocate; start them outside the count
		if allocs := testing.AllocsPerRun(5, run); allocs > float64(tc.want) {
			t.Errorf("warm reactive set of %d runs allocates %g times, want ≤ %d", tc.k, allocs, tc.want)
		}
	}
}

// TestEvaluateSetAllocs pins a warm lone Evaluate and a warm five-point
// EvaluateSet (the five schemes) at the 7 and 25 allocations they make:
// the points' schedules, leg reports and per-block maxima and the set's
// shared buffers.
func TestEvaluateSetAllocs(t *testing.T) {
	sys := buildSystem(t, 4)
	var chs []*Characterization
	for _, s := range AllSchemes() {
		ch, err := sys.Characterize(s)
		if err != nil {
			t.Fatal(err)
		}
		chs = append(chs, ch)
	}
	for _, tc := range []struct{ k, want int }{{1, 7}, {5, 25}} {
		cfgs := make([]EvalConfig, tc.k)
		run := func() {
			var err error
			if tc.k == 1 {
				_, err = sys.Evaluate(chs[0], cfgs[0])
			} else {
				_, err = sys.EvaluateSet(chs[:tc.k], cfgs)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		run()
		runtime.GC() // the first GC's mark workers allocate; start them outside the count
		if allocs := testing.AllocsPerRun(5, run); allocs > float64(tc.want) {
			t.Errorf("warm evaluation set of %d points allocates %g times, want ≤ %d", tc.k, allocs, tc.want)
		}
	}
}

// TestReactiveRejectsOverflowingStepCount: a step so short that a
// decode or migration window holds more steps than an int fails its run
// before any run starts, instead of wrapping to one step per window.
func TestReactiveRejectsOverflowingStepCount(t *testing.T) {
	sys := buildSystem(t, 4)
	ch, err := sys.Characterize(XYShift())
	if err != nil {
		t.Fatal(err)
	}
	good := ReactiveConfig{Scheme: XYShift(), TriggerC: 55, SimBlocks: 20}
	for _, dt := range []float64{1e-30, 1e-100} {
		bad := good
		bad.Dt = dt
		res, err := sys.EvaluateReactiveSet(ch, []ReactiveConfig{good, bad})
		var re *ReactiveRunError
		if !errors.As(err, &re) || re.Run != 1 || res != nil || !strings.Contains(err.Error(), "more steps than an int holds") {
			t.Errorf("dt %g: results %v, error %v, want run 1's overflowing step count", dt, res, err)
		}
		if _, err := sys.EvaluateReactive(ch, bad); err == nil {
			t.Errorf("dt %g accepted by EvaluateReactive", dt)
		}
	}
}
