package hotnoc

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hotnoc/internal/place"
	"hotnoc/obs"
)

func labGrid() []SweepPoint {
	return SweepGrid([]string{"A", "E"}, []Scheme{XYShift(), Rot()}, []int{1, 4})
}

// TestLabSecondSweepSkipsCharacterization is the in-process half of the
// acceptance criterion: a second Lab.Sweep over the same grid performs
// zero NoC characterizations — the engine decode counter does not move —
// and returns bitwise identical outcomes.
func TestLabSecondSweepSkipsCharacterization(t *testing.T) {
	ctx := context.Background()
	lab := NewLab(WithScale(testScale))
	pts := labGrid()

	cold, err := lab.SweepAll(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	decodes := lab.Decodes()
	if decodes == 0 {
		t.Fatal("cold sweep performed no decodes")
	}

	warm, err := lab.SweepAll(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := lab.Decodes(); got != decodes {
		t.Fatalf("second sweep performed %d NoC decodes, want 0", got-decodes)
	}
	for i := range cold {
		if !reflect.DeepEqual(cold[i].Result, warm[i].Result) {
			t.Fatalf("point %d: cached result differs from cold run", i)
		}
	}
}

// TestLabWarmRestartFromDisk is the cross-process half of the acceptance
// criterion: a fresh Lab (standing in for a fresh process) pointed at the
// previous run's cache directory performs zero NoC characterizations,
// zero annealing searches and zero calibrations — every build is
// reconstituted from its persisted snapshot — and reproduces the cold
// results bit for bit.
func TestLabWarmRestartFromDisk(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	pts := labGrid()

	cold, err := NewLab(WithScale(testScale), WithCacheDir(dir)).SweepAll(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}

	var hits, misses, buildHitEvents, buildMissEvents int
	anneals := place.AnnealCount()
	lab2 := NewLab(WithScale(testScale), WithCacheDir(dir), WithProgress(func(ev Event) {
		switch ev.Stage {
		case StageCharacterizeDone:
			if ev.CacheHit {
				hits++
			} else {
				misses++
			}
		case StageBuildDone:
			if ev.CacheHit {
				buildHitEvents++
			} else {
				buildMissEvents++
			}
		}
	}))
	warm, err := lab2.SweepAll(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := lab2.Decodes(); got != 0 {
		t.Fatalf("warm restart performed %d NoC decodes, want 0", got)
	}
	if got := place.AnnealCount() - anneals; got != 0 {
		t.Fatalf("warm restart ran %d annealing searches, want 0", got)
	}
	if misses != 0 || hits == 0 {
		t.Fatalf("warm restart saw %d cache hits, %d misses; want all hits", hits, misses)
	}
	if buildMissEvents != 0 || buildHitEvents != 2 {
		t.Fatalf("warm restart build events: %d hits, %d misses; want 2 hits (A, E)",
			buildHitEvents, buildMissEvents)
	}
	if st := lab2.Stats(); st.BuildMisses != 0 || st.BuildHits != 2 {
		t.Fatalf("warm restart build stats: %d hits, %d misses; want 2 / 0",
			st.BuildHits, st.BuildMisses)
	}
	for i := range cold {
		if !reflect.DeepEqual(cold[i].Result, warm[i].Result) {
			t.Fatalf("point %d: warm-restart result differs from cold run", i)
		}
	}
}

// TestLabCorruptCacheIgnored: trashing every persisted entry must not
// fail the sweep — the lab recomputes, reproduces the cold results, and
// leaves valid entries behind.
func TestLabCorruptCacheIgnored(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	pts := labGrid()[:4] // one configuration is enough here

	cold, err := NewLab(WithScale(testScale), WithCacheDir(dir)).SweepAll(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.gob"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no cache entries persisted (err %v)", err)
	}
	for _, f := range entries {
		if err := os.WriteFile(f, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	lab2 := NewLab(WithScale(testScale), WithCacheDir(dir))
	redo, err := lab2.SweepAll(ctx, pts)
	if err != nil {
		t.Fatalf("corrupt cache entries became fatal: %v", err)
	}
	if lab2.Decodes() == 0 {
		t.Fatal("corrupt entries served as cache hits")
	}
	for i := range cold {
		if !reflect.DeepEqual(cold[i].Result, redo[i].Result) {
			t.Fatalf("point %d: result after cache corruption differs", i)
		}
	}

	lab3 := NewLab(WithScale(testScale), WithCacheDir(dir))
	if _, err := lab3.SweepAll(ctx, pts); err != nil {
		t.Fatal(err)
	}
	if got := lab3.Decodes(); got != 0 {
		t.Fatalf("repaired cache still missed (%d decodes)", got)
	}
}

// TestLabSweepStreamsInOrder: the range-over-func sweep yields outcomes
// in point order and supports early exit.
func TestLabSweepStreamsInOrder(t *testing.T) {
	lab := NewLab(WithScale(testScale), WithWorkers(4))
	pts := labGrid()
	i := 0
	for out, err := range lab.Sweep(context.Background(), pts) {
		if err != nil {
			t.Fatal(err)
		}
		if out.Point.Config != pts[i].Config || out.Point.Scheme.Name != pts[i].Scheme.Name ||
			out.Point.Blocks != pts[i].Blocks {
			t.Fatalf("stream position %d carries %s/%s/b%d, want %s/%s/b%d", i,
				out.Point.Config, out.Point.Scheme.Name, out.Point.Blocks,
				pts[i].Config, pts[i].Scheme.Name, pts[i].Blocks)
		}
		i++
	}
	if i != len(pts) {
		t.Fatalf("stream yielded %d outcomes, want %d", i, len(pts))
	}
	for range lab.Sweep(context.Background(), pts) {
		break // an abandoned stream must not wedge the lab
	}
	if _, err := lab.SweepAll(context.Background(), pts[:1]); err != nil {
		t.Fatal(err)
	}
}

// TestLabProgressEvents: a sweep reports build, characterization and
// evaluation events, and a repeat sweep reports cache hits.
func TestLabProgressEvents(t *testing.T) {
	var mu sync.Mutex
	counts := map[SweepStage]int{}
	hits := 0
	lab := NewLab(WithScale(testScale), WithProgress(func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		counts[ev.Stage]++
		if ev.Stage == StageCharacterizeDone && ev.CacheHit {
			hits++
		}
	}))
	pts := SweepGrid([]string{"D"}, []Scheme{XYShift(), Rot()}, []int{1, 4})
	if _, err := lab.SweepAll(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if counts[StageBuildStart] != 1 || counts[StageBuildDone] != 1 {
		t.Fatalf("build events %d/%d, want 1/1", counts[StageBuildStart], counts[StageBuildDone])
	}
	if counts[StageCharacterizeStart] != 2 || counts[StageCharacterizeDone] != 2 {
		t.Fatalf("characterize events %d/%d, want 2/2",
			counts[StageCharacterizeStart], counts[StageCharacterizeDone])
	}
	if counts[StageEvaluateDone] != len(pts) {
		t.Fatalf("%d evaluate events, want %d", counts[StageEvaluateDone], len(pts))
	}
	if hits != 0 {
		t.Fatalf("%d cache hits on a cold sweep", hits)
	}
	mu.Unlock()

	if _, err := lab.SweepAll(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if counts[StageCharacterizeStart] != 2 {
		t.Fatalf("repeat sweep re-characterized (%d start events)", counts[StageCharacterizeStart])
	}
	if hits != 2 {
		t.Fatalf("repeat sweep reported %d cache hits, want 2", hits)
	}
	if counts[StageBuildStart] != 1 {
		t.Fatalf("repeat sweep rebuilt (%d build-start events)", counts[StageBuildStart])
	}
}

// TestLabReactiveSharesOrbit: a reactive parameter sweep through the lab
// matches the fused System.RunReactive bit for bit while characterizing
// the orbit exactly once — including reusing a characterization left by a
// periodic sweep.
func TestLabReactiveSharesOrbit(t *testing.T) {
	ctx := context.Background()
	lab := NewLab(WithScale(testScale))

	// Periodic sweep first: its characterization should serve the
	// reactive runs below.
	if _, err := lab.SweepAll(ctx, []SweepPoint{{Config: "A", Scheme: XYShift()}}); err != nil {
		t.Fatal(err)
	}
	decodes := lab.Decodes()

	cfgs := []ReactiveConfig{
		{Scheme: XYShift(), TriggerC: 84, SimBlocks: 300, WarmupBlocks: 150},
		{Scheme: XYShift(), TriggerC: 82, SimBlocks: 300, WarmupBlocks: 150},
	}
	got, err := lab.Reactive(ctx, "A", cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if n := lab.Decodes(); n != decodes {
		t.Fatalf("reactive sweep performed %d extra NoC decodes, want 0", n-decodes)
	}

	built, err := BuildConfig("A", testScale)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, err := built.System.RunReactive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("reactive config %d differs from fused RunReactive", i)
		}
	}
}

// TestLabReactiveParallelMatchesSerial: reactive evaluations run on the
// worker pool, mixing schemes, and still reproduce the fused
// System.RunReactive bit for bit in input order — determinism survives
// the parallelism.
func TestLabReactiveParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	lab := NewLab(WithScale(testScale), WithWorkers(4))

	cfgs := []ReactiveConfig{
		{Scheme: XYShift(), TriggerC: 84, SimBlocks: 200, WarmupBlocks: 100},
		{Scheme: Rot(), TriggerC: 83, SimBlocks: 200, WarmupBlocks: 100},
		{Scheme: XYShift(), TriggerC: 82, SimBlocks: 200, WarmupBlocks: 100},
		{Scheme: Rot(), TriggerC: 85, SimBlocks: 200, WarmupBlocks: 100},
		{Scheme: XYShift(), TriggerC: 86, SimBlocks: 200, WarmupBlocks: 100},
	}
	got, err := lab.Reactive(ctx, "A", cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cfgs) {
		t.Fatalf("%d results for %d configs", len(got), len(cfgs))
	}

	built, err := BuildConfig("A", testScale)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, err := built.System.RunReactive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("reactive config %d differs from fused RunReactive", i)
		}
	}
}

// TestLabReactiveWorkerCounts: a reactive sweep over two schemes, with
// mixed horizons, strides and steps, gives bitwise identical results on
// 1, 2, 4 and 8 workers, however groupPoints chunks the cells and
// however runTask groups them into lockstep sets.
func TestLabReactiveWorkerCounts(t *testing.T) {
	var cfgs []ReactiveConfig
	for i, trig := range []float64{82, 83, 84, 85, 86} {
		for _, s := range []Scheme{XYShift(), Rot()} {
			cfgs = append(cfgs, ReactiveConfig{
				Scheme: s, TriggerC: trig, SimBlocks: 120 + 20*i, WarmupBlocks: 60,
				PeaksEvery: i - 1, Dt: []float64{0, 1e-5}[i%2],
			})
		}
	}
	var want []ReactiveResult
	for _, workers := range []int{1, 2, 4, 8} {
		got, err := NewLab(WithScale(testScale), WithWorkers(workers)).Reactive(context.Background(), "A", cfgs)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d workers: results differ from 1 worker", workers)
		}
	}
}

// TestReactiveSetPaperScale: on a paper-scale configuration A, every run
// of the reactive reference set — X-Y Shift and Rot under each trigger
// of {82, 83, 84, 85} °C, default horizon — evaluated as one lockstep set
// per scheme is bitwise its lone EvaluateReactive.
func TestReactiveSetPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale build and characterization")
	}
	built, err := BuildConfig("A", 1)
	if err != nil {
		t.Fatal(err)
	}
	sys := built.System
	for _, s := range []Scheme{XYShift(), Rot()} {
		ch, err := sys.Characterize(s)
		if err != nil {
			t.Fatal(err)
		}
		var cfgs []ReactiveConfig
		for _, trig := range []float64{82, 83, 84, 85} {
			cfgs = append(cfgs, ReactiveConfig{Scheme: s, TriggerC: trig})
		}
		set, err := sys.EvaluateReactiveSet(ch, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			alone, err := sys.EvaluateReactive(ch, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := append([]float64{set[i].PeakC, set[i].MeanC, set[i].ThroughputPenalty}, set[i].BlockPeaks...)
			want := append([]float64{alone.PeakC, alone.MeanC, alone.ThroughputPenalty}, alone.BlockPeaks...)
			same := set[i].Migrations == alone.Migrations && len(got) == len(want)
			for j := 0; same && j < len(got); j++ {
				same = math.Float64bits(got[j]) == math.Float64bits(want[j])
			}
			if !same {
				t.Fatalf("%s at %g °C: set result differs from the lone evaluation", s.Name, cfg.TriggerC)
			}
		}
	}
}

// TestLabReactiveValidation: a config without a scheme fails fast, naming
// its index, before any work starts.
func TestLabReactiveValidation(t *testing.T) {
	lab := NewLab(WithScale(testScale))
	_, err := lab.Reactive(context.Background(), "A", []ReactiveConfig{
		{Scheme: XYShift(), TriggerC: 84, SimBlocks: 100, WarmupBlocks: 50},
		{},
	})
	if err == nil || !strings.Contains(err.Error(), "config 1") {
		t.Fatalf("missing scheme not rejected (err %v)", err)
	}
	if lab.Decodes() != 0 {
		t.Fatal("validation failure still performed NoC work")
	}
}

// TestLabRejectsOverflowingCounts: a period or reactive step whose cycle
// or step count does not fit fails its sweep with an error naming the
// point, instead of a result computed from a wrapped count.
func TestLabRejectsOverflowingCounts(t *testing.T) {
	lab := NewLab(WithScale(testScale))
	for _, tc := range []struct {
		pt   SweepPoint
		want []string
	}{
		{PeriodicPoint("A", XYShift(), math.MaxInt),
			[]string{"config A scheme X-Y Shift blocks 9223372036854775807", "overflows the cycle count"}},
		{ReactivePoint("A", ReactiveConfig{Scheme: XYShift(), TriggerC: 84, Dt: 1e-30}),
			[]string{"config A scheme X-Y Shift reactive trigger 84", "more steps than an int holds"}},
		{ReactivePoint("A", ReactiveConfig{Scheme: XYShift(), TriggerC: 83, Dt: 1e-100}),
			[]string{"config A scheme X-Y Shift reactive trigger 83", "more steps than an int holds"}},
	} {
		_, err := lab.SweepAll(context.Background(), []SweepPoint{tc.pt})
		for _, w := range tc.want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Errorf("%+v: error %v, want it to contain %q", tc.pt, err, w)
			}
		}
	}
}

// TestLabMixedSweep: periodic and reactive points mix freely in one
// Lab.Sweep, stream in point order with the result arm matching each
// kind, and share one NoC characterization per (config, scheme) across
// kinds — the decode counter moves once per orbit, not per kind.
func TestLabMixedSweep(t *testing.T) {
	ctx := context.Background()
	lab := NewLab(WithScale(testScale), WithWorkers(4))
	rcfg := ReactiveConfig{Scheme: XYShift(), TriggerC: 84, SimBlocks: 200, WarmupBlocks: 100}
	pts := []SweepPoint{
		PeriodicPoint("A", XYShift(), 1),
		ReactivePoint("A", rcfg),
		PeriodicPoint("A", XYShift(), 4),
	}
	if err := ValidateSweep(pts); err != nil {
		t.Fatal(err)
	}
	i := 0
	for out, err := range lab.Sweep(ctx, pts) {
		if err != nil {
			t.Fatal(err)
		}
		if out.Point.Kind() != pts[i].Kind() {
			t.Fatalf("stream position %d has kind %q, want %q", i, out.Point.Kind(), pts[i].Kind())
		}
		if (out.Point.Kind() == KindReactive) != (out.Reactive != nil) {
			t.Fatalf("stream position %d: result arm does not match kind %q", i, out.Point.Kind())
		}
		i++
	}
	if i != len(pts) {
		t.Fatalf("stream yielded %d outcomes, want %d", i, len(pts))
	}

	// One (config, scheme) pair across three points of two kinds: the
	// decode counter must match a single-orbit reference exactly.
	ref := NewLab(WithScale(testScale))
	if _, err := ref.SweepAll(ctx, pts[:1]); err != nil {
		t.Fatal(err)
	}
	if lab.Decodes() != ref.Decodes() {
		t.Fatalf("mixed sweep performed %d decodes, want the one-orbit reference's %d",
			lab.Decodes(), ref.Decodes())
	}

	// The reactive arm is bitwise identical to the fused RunReactive.
	outs, err := lab.SweepAll(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	built, err := BuildConfig("A", testScale)
	if err != nil {
		t.Fatal(err)
	}
	want, err := built.System.RunReactive(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*outs[1].Reactive, want) {
		t.Fatal("mixed-sweep reactive result differs from fused RunReactive")
	}
}

// TestLabStats: the stats snapshot exposes decode and cache counters
// consistent with a sweep's actual work.
func TestLabStats(t *testing.T) {
	lab := NewLab(WithScale(testScale))
	pts := SweepGrid([]string{"B"}, []Scheme{XYShift(), Rot()}, []int{1, 4})
	if _, err := lab.SweepAll(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	st := lab.Stats()
	if st.Scale != testScale {
		t.Fatalf("stats scale %d, want %d", st.Scale, testScale)
	}
	if st.Workers < 1 {
		t.Fatalf("stats workers %d, want >= 1", st.Workers)
	}
	if st.Decodes != lab.Decodes() || st.Decodes == 0 {
		t.Fatalf("stats decodes %d, lab decodes %d", st.Decodes, lab.Decodes())
	}
	if st.CacheMisses != 2 || st.CacheHits != 0 {
		t.Fatalf("cold sweep counted %d misses / %d hits, want 2 / 0", st.CacheMisses, st.CacheHits)
	}
	if st.BuildMisses != 1 || st.BuildHits != 0 {
		t.Fatalf("cold sweep counted %d build misses / %d hits, want 1 / 0",
			st.BuildMisses, st.BuildHits)
	}
	if _, err := lab.SweepAll(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if st := lab.Stats(); st.CacheHits != 2 {
		t.Fatalf("warm sweep counted %d hits, want 2", st.CacheHits)
	}
}

// TestLabFigure1DuplicateConfigsMean: duplicate configuration names get
// their own rows but cannot skew the per-scheme means (the §3 averages).
func TestLabFigure1DuplicateConfigsMean(t *testing.T) {
	ctx := context.Background()
	lab := NewLab(WithScale(testScale))
	dup, err := lab.Figure1(ctx, []string{"A", "A", "E"})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := lab.Figure1(ctx, []string{"A", "E"})
	if err != nil {
		t.Fatal(err)
	}
	if len(dup.Rows) != 3 || len(clean.Rows) != 2 {
		t.Fatalf("row counts %d/%d, want 3/2", len(dup.Rows), len(clean.Rows))
	}
	if !reflect.DeepEqual(dup.MeanReductionC, clean.MeanReductionC) {
		t.Fatalf("duplicate configs skewed the scheme means:\n dup   %v\n clean %v",
			dup.MeanReductionC, clean.MeanReductionC)
	}
}

// TestLabBuildCache: Lab.Build shares the session build cache with
// sweeps.
func TestLabBuildCache(t *testing.T) {
	lab := NewLab(WithScale(testScale))
	b1, err := lab.Build("D")
	if err != nil {
		t.Fatal(err)
	}
	outs, err := lab.SweepAll(context.Background(),
		[]SweepPoint{{Config: "D", Scheme: XYShift()}})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Built != b1 {
		t.Fatal("sweep did not reuse Lab.Build's calibrated build")
	}
}

// TestWarmSweepAllocs guards the warm path's allocation budget: a Figure 1
// grid served from the characterization cache evaluates on each build's
// shared System, so it allocates no per-task NoC, engine, migrator or
// thermal evaluator.
func TestWarmSweepAllocs(t *testing.T) {
	ctx := context.Background()
	lab := NewLab(WithScale(8), WithWorkers(2))
	pts := SweepGrid([]string{"A", "B", "C", "D", "E"}, Schemes(), nil)
	if _, err := lab.SweepAll(ctx, pts); err != nil {
		t.Fatal(err)
	}
	runtime.GC() // the first GC's mark workers allocate; start them outside the count
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := lab.SweepAll(ctx, pts); err != nil {
			t.Fatal(err)
		}
	})
	// About 270 allocations here, and as many under the race detector.
	// A label formatted per schedule leg that nothing read made it 460
	// (540 under the race detector); naming cache files on memory hits of
	// a memory-only cache made it 1 000; a per-task clone is 5 100.
	const bound = 400
	if allocs > bound {
		t.Fatalf("warm 25-point sweep made %.0f allocations, want at most %d", allocs, bound)
	}
}

// TestColdSweepAllocs caps the allocations of a cold scale-8 Figure 1
// sweep at 2 and 4 workers, averaged over fresh Labs whose five builds
// are made outside the count. Each build lends its characterizations
// simulators from a free list and shares one decode schedule among
// them, so a sweep makes about one simulator per build and worker.
func TestColdSweepAllocs(t *testing.T) {
	ctx := context.Background()
	configs := []string{"A", "B", "C", "D", "E"}
	pts := SweepGrid(configs, Schemes(), nil)
	for _, workers := range []int{2, 4} {
		const runs = 4
		var mallocs uint64
		for range runs {
			lab := NewLab(WithScale(8), WithWorkers(workers))
			for _, c := range configs {
				if _, err := lab.Build(c); err != nil {
					t.Fatal(err)
				}
			}
			runtime.GC() // the first GC's mark workers allocate; start them outside the count
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := lab.SweepAll(ctx, pts); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
		}
		allocs := mallocs / runs
		// About 2 700 allocations at 2 workers and 2 850 at 4, and as
		// many under the race detector. A clone per characterization,
		// each building its decode schedule, a packet per NoC node pair,
		// a FIFO per input port and a map per migration phase, made it
		// 13 100 at either worker count.
		const bound = 3500
		if allocs > bound {
			t.Fatalf("%d workers: cold 25-point sweep made %d allocations, want at most %d", workers, allocs, bound)
		}
	}
}

// TestColdFigure1SimulatedDecodes pins the build-wide decode memo at
// paper scale: a cold Figure 1 asks for 121 decodes but simulates only
// the 71 distinct ones its builds' calibration decodes have not already
// recorded, whatever the worker count, and the simulated count reaches
// /metrics as hotnoc_decodes_simulated_total.
func TestColdFigure1SimulatedDecodes(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale Figure 1")
	}
	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		lab := NewLab(WithScale(1), WithWorkers(workers), WithMetrics(reg))
		if _, err := lab.Figure1(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		scale := obs.Labels{"scale": "1"}
		decodes := reg.CounterValue("hotnoc_decodes_total", scale)
		simulated := reg.CounterValue("hotnoc_decodes_simulated_total", scale)
		if decodes != 121 || lab.Stats().Decodes != 121 || simulated != 71 {
			t.Errorf("workers %d: %d decodes (Stats %d), %d simulated; want 121 and 71",
				workers, decodes, lab.Stats().Decodes, simulated)
		}
	}
}

// TestColdFigure1SimulatedMigrations pins the build-wide migration memo
// at paper scale: a cold Figure 1 executes 96 orbit migrations but steps
// only the 25 distinct (build, permutation) pairs, whatever the worker
// count, and both counts reach /metrics.
func TestColdFigure1SimulatedMigrations(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale Figure 1")
	}
	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		lab := NewLab(WithScale(1), WithWorkers(workers), WithMetrics(reg))
		if _, err := lab.Figure1(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		scale := obs.Labels{"scale": "1"}
		migrations := reg.CounterValue("hotnoc_migrations_total", scale)
		simulated := reg.CounterValue("hotnoc_migrations_simulated_total", scale)
		if migrations != 96 || simulated != 25 {
			t.Errorf("workers %d: %d migrations, %d simulated; want 96 and 25", workers, migrations, simulated)
		}
	}
}

// TestColdFigure1SteppedCycles pins how many NoC cycles a cold
// paper-scale Figure 1's characterizations step, whatever the worker
// count: the cycles the host simulates once the decode and migration
// memos, phase replay and idle fast-forwarding have done their work.
// A change to the cycle kernel that keeps this count makes each stepped
// cycle cheaper rather than stepping fewer.
func TestColdFigure1SteppedCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale Figure 1")
	}
	const want = 96540
	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		lab := NewLab(WithScale(1), WithWorkers(workers), WithMetrics(reg))
		if _, err := lab.Figure1(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		if got := reg.CounterValue("hotnoc_noc_cycles_stepped_total", obs.Labels{"scale": "1"}); got != want {
			t.Errorf("workers %d: %d NoC cycles stepped, want %d", workers, got, want)
		}
	}
}
