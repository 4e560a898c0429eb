// Package hotnoc reproduces "Hotspot Prevention Through Runtime
// Reconfiguration in Network-On-Chip" (Link & Vijaykrishnan, DATE 2005):
// a Network-on-Chip running an LDPC decoder periodically migrates its
// logical workload plane by an algebraic transformation — rotation,
// mirroring or translation — so hotspot-inducing computation moves around
// the die and the thermal profile flattens.
//
// The package is a façade over the full simulation stack:
//
//   - internal/geom       plane transformations (Table 1) and permutations
//   - internal/floorplan  4.36 mm²-per-PE mesh floorplans
//   - internal/thermal    HotSpot-style RC thermal model
//   - internal/power      160 nm activity-based power + leakage
//   - internal/noc        cycle-accurate wormhole mesh simulator
//   - internal/ldpc       min-sum LDPC codec
//   - internal/appmap     the decoder distributed across PEs as NoC traffic
//   - internal/place      thermally-aware simulated-annealing placement
//   - internal/core       migration schemes, phased state transfer,
//     I/O address translation, runtime manager
//   - internal/chipcfg    the paper's test-chip configurations A-E
//
// Typical use — a Lab is the session handle that owns the build cache and
// the cross-run characterization cache, and streams sweep results:
//
//	lab := hotnoc.NewLab(hotnoc.WithScale(8), hotnoc.WithCacheDir(".hotnoc-cache"))
//	pts := hotnoc.SweepGrid([]string{"A", "E"}, hotnoc.Schemes(), []int{1, 4, 8})
//	for out, err := range lab.Sweep(ctx, pts) {
//		if err != nil {
//			log.Fatal(err)
//		}
//		fmt.Printf("%s/%s: %.2f°C reduction\n",
//			out.Point.Config, out.Point.Scheme.Name, out.Result.ReductionC)
//	}
//
// A sweep grid is not limited to the paper's periodic policy: periodic
// and reactive (threshold-triggered) points mix freely in one grid, share
// NoC characterizations per (config, scheme), and stream back in point
// order with the result arm matching each point's kind:
//
//	pts := []hotnoc.SweepPoint{
//		hotnoc.PeriodicPoint("A", hotnoc.XYShift(), 4),
//		hotnoc.ReactivePoint("A", hotnoc.ReactiveConfig{Scheme: hotnoc.XYShift(), TriggerC: 84}),
//	}
//	for out, err := range lab.Sweep(ctx, pts) {
//		if err != nil {
//			log.Fatal(err)
//		}
//		switch out.Point.Kind() {
//		case hotnoc.KindReactive:
//			fmt.Printf("reactive: peak %.2f°C, %d migrations\n",
//				out.Reactive.PeakC, out.Reactive.Migrations)
//		default:
//			fmt.Printf("periodic: %.2f°C reduction\n", out.Result.ReductionC)
//		}
//	}
//
// Re-running the sweep — in the same process or in a fresh one pointed at
// the same cache directory — skips the cycle-accurate NoC stage entirely
// and reproduces the results bit for bit. One-shot evaluations can still
// go through the raw System:
//
//	built, _ := hotnoc.BuildConfig("A", 1)
//	res, _ := built.System.Run(hotnoc.RunConfig{Scheme: hotnoc.XYShift()})
//	fmt.Printf("peak %.2f°C -> %.2f°C\n", res.BaselinePeakC, res.MigratedPeakC)
package hotnoc

import (
	"context"
	"iter"

	"hotnoc/internal/chipcfg"
	"hotnoc/internal/core"
)

// Re-exported core types, so downstream users need only this package.
type (
	// Scheme is a migration policy (one of the paper's five).
	Scheme = core.Scheme
	// RunConfig selects the scheme, migration period and ablations for a
	// System.Run evaluation.
	RunConfig = core.RunConfig
	// RunResult is the baseline-versus-migrated comparison for one run.
	RunResult = core.RunResult
	// System is a fully wired test chip (workload, NoC, thermal model,
	// migration machinery).
	System = core.System
	// Spec declares a test-chip configuration.
	Spec = chipcfg.Spec
	// Built is a calibrated, ready-to-run configuration.
	Built = chipcfg.Built
	// ReactiveConfig configures threshold-triggered (sensor-driven)
	// migration, the library's extension of the paper's periodic policy.
	ReactiveConfig = core.ReactiveConfig
	// ReactiveResult summarises a reactive run.
	ReactiveResult = core.ReactiveResult
	// Characterization is the immutable outcome of simulating one
	// scheme's full orbit on the cycle-accurate NoC; it feeds any number
	// of concurrent periodic (System.Evaluate) or reactive
	// (System.EvaluateReactive) evaluations, and is what Lab caches.
	Characterization = core.Characterization
)

// The paper's five migration schemes.
var (
	Rot        = core.Rot
	XMirror    = core.XMirrorScheme
	XYMirror   = core.XYMirrorScheme
	RightShift = core.RightShift
	XYShift    = core.XYShift
)

// Schemes returns all five schemes in the paper's Figure 1 order.
func Schemes() []Scheme { return core.AllSchemes() }

// SchemeByName resolves a scheme from a CLI-style name such as "rot" or
// "x-y shift".
func SchemeByName(name string) (Scheme, error) { return core.SchemeByName(name) }

// Configs returns the five test-chip configuration specs (A-E).
func Configs() []Spec { return chipcfg.Specs() }

// ConfigByName returns one configuration spec by letter.
func ConfigByName(name string) (Spec, error) { return chipcfg.ByName(name) }

// Session is the experiment surface shared by a local Lab and a remote
// client talking to a hotnocd daemon: streaming grid sweeps — periodic,
// reactive or mixed — plus the paper's derived studies. The six CLIs
// program against Session, so a -server flag swaps an in-process Lab for
// a remote daemon without changing anything else; *Lab and the client
// package's *Client both satisfy it. Lab-only facilities — raw Build
// access, decode counters — are not part of Session because a remote
// daemon does not expose them (the daemon's counters live on /v1/stats).
type Session interface {
	// Sweep streams grid outcomes in point order; see Lab.Sweep. Grids may
	// mix periodic and reactive points freely.
	Sweep(ctx context.Context, pts []SweepPoint) iter.Seq2[SweepOutcome, error]
	// SweepAll is Sweep collected into a slice.
	SweepAll(ctx context.Context, pts []SweepPoint) ([]SweepOutcome, error)
	// Figure1, PeriodSweep and MigrationEnergy reproduce the paper's
	// studies; see the Lab methods of the same names.
	Figure1(ctx context.Context, configs []string) (*Figure1Result, error)
	PeriodSweep(ctx context.Context, config string, scheme Scheme, blocks []int) ([]PeriodPoint, error)
	MigrationEnergy(ctx context.Context, config string) ([]EnergyStudy, error)
	// Reactive evaluates threshold-triggered configurations on one chip
	// configuration, in input order; see Lab.Reactive.
	Reactive(ctx context.Context, config string, cfgs []ReactiveConfig) ([]ReactiveResult, error)
	// Placement reports one configuration's thermally-aware static
	// placement; see Lab.Placement.
	Placement(ctx context.Context, config string) (*PlacementReport, error)
}

var _ Session = (*Lab)(nil)

// BuildConfig assembles and calibrates a configuration. scale divides the
// workload size for quick runs (1 = the full paper-scale configuration;
// 8 is a good smoke-test size).
func BuildConfig(name string, scale int) (*Built, error) {
	spec, err := chipcfg.ByName(name)
	if err != nil {
		return nil, err
	}
	return spec.Scaled(scale).Build()
}
