package hotnoc

import (
	"context"
	"sync"
	"testing"

	"hotnoc/internal/core"
	"hotnoc/internal/geom"
	"hotnoc/internal/place"
	"hotnoc/obs"
)

// Benchmarks double as the experiment harness: each one regenerates a
// table or figure of the paper at full scale and reports the headline
// quantity as a benchmark metric alongside the runtime. Builds are cached
// per configuration so repeated benchmarks measure the experiment, not
// the construction pipeline.

var (
	buildMu    sync.Mutex
	fullBuilds = map[string]*Built{}
)

func fullBuild(b *testing.B, name string) *Built {
	b.Helper()
	buildMu.Lock()
	defer buildMu.Unlock()
	if bl, ok := fullBuilds[name]; ok {
		return bl
	}
	bl, err := BuildConfig(name, 1)
	if err != nil {
		b.Fatal(err)
	}
	fullBuilds[name] = bl
	return bl
}

// BenchmarkFigure1 regenerates every bar of Figure 1 (peak-temperature
// reduction per scheme per circuit configuration, one-block period).
func BenchmarkFigure1(b *testing.B) {
	for _, cfg := range []string{"A", "B", "C", "D", "E"} {
		for _, s := range Schemes() {
			s := s
			built := fullBuild(b, cfg)
			b.Run(cfg+"/"+s.Name, func(b *testing.B) {
				var last RunResult
				for i := 0; i < b.N; i++ {
					res, err := built.System.Run(RunConfig{Scheme: s})
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(last.ReductionC, "°C-reduction")
				b.ReportMetric(last.BaselinePeakC, "°C-base")
				b.ReportMetric(last.ThroughputPenalty*100, "%-penalty")
			})
		}
	}
}

// BenchmarkFigure1Means regenerates the §3 scheme averages (paper:
// X-Y shift 4.62 °C, rotation 4.15 °C mean peak reduction).
func BenchmarkFigure1Means(b *testing.B) {
	lab := NewLab(WithScale(1))
	var res *Figure1Result
	for i := 0; i < b.N; i++ {
		r, err := lab.Figure1(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.MeanReductionC["X-Y Shift"], "°C-xyshift-mean")
	b.ReportMetric(res.MeanReductionC["Rot"], "°C-rot-mean")
}

// BenchmarkPeriodSweep regenerates the §3 migration-period study
// (109.3 µs -> 1.6 % penalty; 437.2 µs -> <0.4 % and peak +<0.1 °C;
// 874.4 µs -> <0.2 %) as 1/4/8-block periods on configuration A.
func BenchmarkPeriodSweep(b *testing.B) {
	for _, blocks := range []int{1, 4, 8} {
		blocks := blocks
		built := fullBuild(b, "A")
		b.Run(map[int]string{1: "1block", 4: "4blocks", 8: "8blocks"}[blocks], func(b *testing.B) {
			var last RunResult
			for i := 0; i < b.N; i++ {
				res, err := built.System.Run(RunConfig{Scheme: XYShift(), BlocksPerPeriod: blocks})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.ThroughputPenalty*100, "%-penalty")
			b.ReportMetric(last.MigratedPeakC, "°C-peak")
			b.ReportMetric(last.PeriodSec*1e6, "µs-period")
		})
	}
}

// BenchmarkPeriodSweepShared is the period study on the split pipeline:
// one NoC characterization shared by all three periods, against
// BenchmarkPeriodSweep's three fused Runs. The decodes/sweep metric shows
// the saving directly — (orbit+1) engine decodes here versus 3·(orbit+1)
// for three fused Runs — alongside the wall-clock speedup.
func BenchmarkPeriodSweepShared(b *testing.B) {
	built := fullBuild(b, "A")
	sys := built.System
	start := sys.Engine.Decodes
	var last RunResult
	for i := 0; i < b.N; i++ {
		ch, err := sys.Characterize(XYShift())
		if err != nil {
			b.Fatal(err)
		}
		for _, blocks := range []int{1, 4, 8} {
			res, err := sys.Evaluate(ch, core.EvalConfig{BlocksPerPeriod: blocks})
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
	}
	b.ReportMetric(float64(sys.Engine.Decodes-start)/float64(b.N), "decodes/sweep")
	b.ReportMetric(last.ThroughputPenalty*100, "%-penalty-8blk")
	b.ReportMetric(last.MigratedPeakC, "°C-peak-8blk")
}

// BenchmarkSweepFigure1 runs the whole Figure 1 grid cold through the
// concurrent sweep engine (all configurations and schemes, one worker per
// core), the headline workload of the orchestration layer. Every
// iteration gets a fresh Lab whose five builds are made with the timer
// stopped, so an op is one cold sweep: every characterization is
// computed, no build is (BenchmarkBuildCold times those).
// decodes/sweep and stepped-cycles/sweep report the NoC work per sweep.
func BenchmarkSweepFigure1(b *testing.B) {
	configs := []string{"A", "B", "C", "D", "E"}
	pts := SweepGrid(configs, Schemes(), nil)
	scale := obs.Labels{"scale": "1"}
	var outs []SweepOutcome
	var decodes, stepped uint64
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		reg := obs.NewRegistry()
		lab := NewLab(WithScale(1), WithMetrics(reg))
		for _, c := range configs {
			if _, err := lab.Build(c); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		o, err := lab.SweepAll(context.Background(), pts)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		outs = o
		decodes += lab.Decodes()
		stepped += reg.CounterValue("hotnoc_noc_cycles_stepped_total", scale)
	}
	b.ReportMetric(float64(decodes)/float64(b.N), "decodes/sweep")
	b.ReportMetric(float64(stepped)/float64(b.N), "stepped-cycles/sweep")
	mean := 0.0
	for _, o := range outs {
		if o.Point.Scheme.Name == "X-Y Shift" {
			mean += o.Result.ReductionC / 5
		}
	}
	b.ReportMetric(mean, "°C-xyshift-mean")
}

// BenchmarkLabSweepWarm measures the Figure 1 grid served entirely from a
// Lab's cross-run characterization cache: after one cold pass, every
// iteration pays only the thermal evaluations. The decodes/sweep metric
// must be 0 — the cache's whole point.
func BenchmarkLabSweepWarm(b *testing.B) {
	lab := NewLab(WithScale(1))
	pts := SweepGrid([]string{"A", "B", "C", "D", "E"}, Schemes(), nil)
	if _, err := lab.SweepAll(context.Background(), pts); err != nil {
		b.Fatal(err)
	}
	start := lab.Decodes()
	b.ResetTimer()
	var outs []SweepOutcome
	for i := 0; i < b.N; i++ {
		o, err := lab.SweepAll(context.Background(), pts)
		if err != nil {
			b.Fatal(err)
		}
		outs = o
	}
	b.ReportMetric(float64(lab.Decodes()-start)/float64(b.N), "decodes/sweep")
	mean := 0.0
	for _, o := range outs {
		if o.Point.Scheme.Name == "X-Y Shift" {
			mean += o.Result.ReductionC / 5
		}
	}
	b.ReportMetric(mean, "°C-xyshift-mean")
}

// BenchmarkBuildWarm measures reconstituting a paper-scale calibrated
// build from its persisted snapshot — the daemon's cold-start path with
// a populated cache directory — against which BenchmarkFigure1's builds
// (annealing + calibration per configuration) are the cold baseline.
// The anneals/op metric must be 0: a warm start performs deterministic
// assembly and a gob decode, nothing more.
func BenchmarkBuildWarm(b *testing.B) {
	dir := b.TempDir()
	seed := NewLab(WithCacheDir(dir))
	if _, err := seed.Build("A"); err != nil {
		b.Fatal(err)
	}
	start := place.AnnealCount()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lab := NewLab(WithCacheDir(dir)) // a fresh process, in miniature
		if _, err := lab.Build("A"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(place.AnnealCount()-start)/float64(b.N), "anneals/op")
}

// BenchmarkBuildCold measures a cold paper-scale build of configuration C
// in a fresh Lab without a cache directory: code construction, partition,
// thermally-aware annealing and base-temperature calibration. The
// anneals/op metric must be 1.
func BenchmarkBuildCold(b *testing.B) {
	start := place.AnnealCount()
	for i := 0; i < b.N; i++ {
		lab := NewLab()
		if _, err := lab.Build("C"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(place.AnnealCount()-start)/float64(b.N), "anneals/op")
}

// BenchmarkBuildColdFigure1 measures the five cold paper-scale builds of
// Figure 1, configurations A to E in a row on a fresh Lab without a cache
// directory: the set-up a cold Figure 1 run pays before its first sweep.
// The anneals/op metric must be 5.
func BenchmarkBuildColdFigure1(b *testing.B) {
	start := place.AnnealCount()
	for i := 0; i < b.N; i++ {
		lab := NewLab()
		for _, c := range []string{"A", "B", "C", "D", "E"} {
			if _, err := lab.Build(c); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(place.AnnealCount()-start)/float64(b.N), "anneals/op")
}

// BenchmarkMigrationEnergy regenerates the §3 rotation-energy observation
// on configuration E: migration energy raises the average chip temperature
// (paper: +0.3 °C) and pushes rotation's peak reduction negative.
func BenchmarkMigrationEnergy(b *testing.B) {
	built := fullBuild(b, "E")
	var with, without RunResult
	for i := 0; i < b.N; i++ {
		w, err := built.System.Run(RunConfig{Scheme: Rot()})
		if err != nil {
			b.Fatal(err)
		}
		wo, err := built.System.Run(RunConfig{Scheme: Rot(), ExcludeMigrationEnergy: true})
		if err != nil {
			b.Fatal(err)
		}
		with, without = w, wo
	}
	b.ReportMetric(with.MigratedMeanC-without.MigratedMeanC, "°C-mean-penalty")
	b.ReportMetric(with.ReductionC, "°C-rot-reduction")
	b.ReportMetric(with.MigrationEnergyJ*1e6, "µJ-per-cycle")
}

// BenchmarkTable1Transforms measures the paper's Table 1 transformation
// functions themselves — the hardware the migration unit implements with
// "3-bit operands" — applied across a full 5x5 plane.
func BenchmarkTable1Transforms(b *testing.B) {
	g := geom.NewGrid(5, 5)
	transforms := []geom.Transform{
		geom.Rotation(5), geom.XMirror(5), geom.XTranslate(5, 1),
	}
	coords := g.Coords()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range transforms {
			for _, c := range coords {
				_ = tr.Apply(g, c)
			}
		}
	}
}

// BenchmarkAblationReactive compares the library's sensor-triggered
// migration policy against the paper's periodic policy on configuration A:
// a threshold midway between the static and migrated peaks should cap the
// temperature near the periodic result at a fraction of the migrations.
func BenchmarkAblationReactive(b *testing.B) {
	built := fullBuild(b, "A")
	periodic, err := built.System.Run(RunConfig{Scheme: XYShift()})
	if err != nil {
		b.Fatal(err)
	}
	trigger := (periodic.BaselinePeakC + periodic.MigratedPeakC) / 2
	var last ReactiveResult
	for i := 0; i < b.N; i++ {
		res, err := built.System.RunReactive(ReactiveConfig{
			Scheme: XYShift(), TriggerC: trigger, SimBlocks: 512, WarmupBlocks: 256,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.PeakC, "°C-peak")
	b.ReportMetric(float64(last.Migrations), "migrations/256blk")
	b.ReportMetric(last.ThroughputPenalty*100, "%-penalty")
	b.ReportMetric(periodic.ThroughputPenalty*100, "%-periodic-penalty")
}

// BenchmarkEvaluateReactive measures one warm reactive evaluation: X-Y
// Shift under an 84 °C trigger on a paper-scale configuration A
// characterization with the default 2048-block horizon. The build and the
// characterization (the NoC work) happen before the timer starts, and one
// untimed call warms the System's pooled thermal evaluator, so the loop
// times what a warm reactive point costs: the steady warm start and about
// 65k leakage-coupled backward-Euler steps. It fails if the loop decodes.
func BenchmarkEvaluateReactive(b *testing.B) {
	built := fullBuild(b, "A")
	sys, err := built.System.Clone()
	if err != nil {
		b.Fatal(err)
	}
	ch, err := sys.Characterize(XYShift())
	if err != nil {
		b.Fatal(err)
	}
	cfg := ReactiveConfig{Scheme: XYShift(), TriggerC: 84}
	if _, err := built.System.EvaluateReactive(ch, cfg); err != nil {
		b.Fatal(err)
	}
	decodes := built.System.Engine.Decodes
	var last ReactiveResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if last, err = built.System.EvaluateReactive(ch, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if built.System.Engine.Decodes != decodes {
		b.Fatalf("the timed loop decoded %d blocks on the NoC", built.System.Engine.Decodes-decodes)
	}
	b.ReportMetric(last.PeakC, "°C-peak")
	b.ReportMetric(float64(last.Migrations), "migrations")
}

// BenchmarkReactiveSet measures the warm reactive reference set through
// Lab.Reactive: X-Y Shift and Rot under every trigger of {82, 83, 84, 85}
// °C on a paper-scale configuration A, with the default horizon, on a
// two-worker Lab. One untimed call builds, characterizes and warms the
// Lab, so the loop times the thermal work of eight trigger runs grouped
// into lockstep sets. It fails if the loop decodes.
func BenchmarkReactiveSet(b *testing.B) {
	lab := NewLab(WithScale(1), WithWorkers(2))
	var cfgs []ReactiveConfig
	for _, s := range []Scheme{XYShift(), Rot()} {
		for _, trig := range []float64{82, 83, 84, 85} {
			cfgs = append(cfgs, ReactiveConfig{Scheme: s, TriggerC: trig})
		}
	}
	ctx := context.Background()
	if _, err := lab.Reactive(ctx, "A", cfgs); err != nil {
		b.Fatal(err)
	}
	decodes := lab.Decodes()
	var last []ReactiveResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if last, err = lab.Reactive(ctx, "A", cfgs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if d := lab.Decodes() - decodes; d != 0 {
		b.Fatalf("the timed loop decoded %d blocks on the NoC", d)
	}
	b.ReportMetric(float64(last[2].Migrations), "migrations-xyshift-84")
}

// BenchmarkPhasePlanner measures the congestion-free migration planner,
// the component that must be fast enough to run at every reconfiguration.
func BenchmarkPhasePlanner(b *testing.B) {
	g := geom.NewGrid(5, 5)
	perm := geom.FromTransform(g, geom.Rotation(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.PlanPhases(g, perm)
	}
}
