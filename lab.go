package hotnoc

import (
	"context"
	"iter"

	"hotnoc/internal/sim"
	"hotnoc/obs"
)

// Event is one progress notification from a Lab's pipeline; see the
// Stage* constants for the stages it reports.
type Event = sim.Event

// SweepStage labels the pipeline stage an Event reports.
type SweepStage = sim.Stage

// The pipeline stages a WithProgress callback observes.
const (
	StageBuildStart        = sim.StageBuildStart
	StageBuildDone         = sim.StageBuildDone
	StageCharacterizeStart = sim.StageCharacterizeStart
	StageCharacterizeDone  = sim.StageCharacterizeDone
	StageEvaluateDone      = sim.StageEvaluateDone
)

// Lab is the package's session handle: a concurrency-safe, long-lived
// environment that owns the build cache and the cross-run
// characterization cache, and exposes every experiment as a method.
// Creating a Lab costs nothing; caches fill on demand and persist for the
// Lab's lifetime, so a second sweep over the same grid performs zero NoC
// characterizations. With WithCacheDir both caches also persist to disk —
// NoC characterizations and calibrated build snapshots — and a fresh
// process pointed at the same directory warm-starts: it skips the
// cycle-accurate NoC stage, the simulated-annealing placement and the
// energy calibration entirely, and produces results bitwise identical to
// a cold run.
//
//	lab := hotnoc.NewLab(hotnoc.WithScale(8), hotnoc.WithCacheDir(".hotnoc-cache"))
//	for out, err := range lab.Sweep(ctx, pts) {
//		if err != nil {
//			return err
//		}
//		fmt.Println(out.Point.Config, out.Result.ReductionC)
//	}
type Lab struct {
	runner *sim.Runner
}

// LabOption configures a Lab at construction.
type LabOption func(*sim.Options)

// WithScale divides the workload size (1 = the full paper-scale
// configuration, the default; 8 is a good smoke-test size).
func WithScale(scale int) LabOption {
	return func(o *sim.Options) { o.Scale = scale }
}

// WithWorkers bounds the sweep worker pool (default GOMAXPROCS).
func WithWorkers(n int) LabOption {
	return func(o *sim.Options) { o.Workers = n }
}

// WithCacheDir persists NoC characterizations and calibrated build
// snapshots (annealed placement + energy calibration) under dir for warm
// restarts. The directory is created on first write; corrupt or stale
// entries of either kind are ignored and recomputed, never fatal.
func WithCacheDir(dir string) LabOption {
	return func(o *sim.Options) { o.CacheDir = dir }
}

// WithProgress registers a callback for build/characterize/evaluate
// events. Delivery is serialized across the Lab's workers; the callback
// must not block for long.
func WithProgress(fn func(Event)) LabOption {
	return func(o *sim.Options) { o.Progress = fn }
}

// WithMetrics registers the Lab's pipeline instruments on reg — stage
// latency histograms (build/characterize/evaluate), cache hit/miss
// counters, decode and evaluated-point counters, all labeled with the
// Lab's scale — and records into them as sweeps run. Recording is
// allocation-free on the per-point evaluate path. The decode and cache
// counters are views of the counts Stats reports, not a second copy.
// Labs of different scales may share one registry; the hotnocd daemon
// serves such a registry on GET /metrics. Keep one Lab per (registry,
// scale): a later Lab at the same scale replaces the earlier one's
// decode and cache-request series, while the stage histograms and the
// evaluated-point counter accumulate across both.
func WithMetrics(reg *obs.Registry) LabOption {
	return func(o *sim.Options) { o.Metrics = reg }
}

// WithCacheLimit bounds the number of files of each cache artifact kind
// (characterizations and build snapshots, bounded independently) the
// cache directory may hold; once exceeded, the least-recently-used
// entries of that kind are evicted. Serving an entry counts as use. Zero
// (the default) keeps the directory unbounded. The limit only matters
// with WithCacheDir — a long-lived service sweeping many scales and
// schemes otherwise accretes files without bound.
func WithCacheLimit(n int) LabOption {
	return func(o *sim.Options) { o.CacheLimit = n }
}

// NewLab creates a session with the given options.
func NewLab(opts ...LabOption) *Lab {
	var o sim.Options
	for _, opt := range opts {
		opt(&o)
	}
	return &Lab{runner: sim.NewRunner(o)}
}

// Sweep evaluates an arbitrary configuration × scheme × period grid
// concurrently and streams outcomes in point order as they complete, as a
// Go 1.23 range-over-func sequence. Each configuration is built once,
// each (configuration, scheme) orbit is characterized on the
// cycle-accurate NoC once — or served from the Lab's cross-run cache —
// and every period/ablation variant reuses that characterization for a
// cheap thermal evaluation. Results are bitwise identical to a serial
// walk of the same grid. On error the sequence yields one final (zero
// outcome, error) pair and stops; breaking early cancels in-flight work.
func (l *Lab) Sweep(ctx context.Context, pts []SweepPoint) iter.Seq2[SweepOutcome, error] {
	return l.runner.Stream(ctx, pts)
}

// SweepWithProgress is Sweep with a per-call progress callback: progress
// receives exactly the events this sweep generates, alongside (not
// instead of) any WithProgress callback. A service multiplexing
// concurrent jobs onto one Lab uses it to attribute pipeline events to
// the job whose sweep triggered them.
func (l *Lab) SweepWithProgress(ctx context.Context, pts []SweepPoint, progress func(Event)) iter.Seq2[SweepOutcome, error] {
	return l.runner.StreamWith(ctx, pts, progress)
}

// SweepAll is Sweep collected into a slice, for callers that want the
// whole grid at once.
func (l *Lab) SweepAll(ctx context.Context, pts []SweepPoint) ([]SweepOutcome, error) {
	return l.runner.Run(ctx, pts)
}

// Build returns the calibrated build for one configuration at the Lab's
// scale, constructing it on first use and serving the Lab's build cache
// afterwards.
func (l *Lab) Build(config string) (*Built, error) {
	return l.runner.Built(config)
}

// Decodes returns the number of engine block decodes the Lab's
// characterizations have asked for, whether simulated on the
// cycle-accurate NoC or replayed from a build's decode memo (the
// hotnoc_decodes_simulated_total series counts the former). A sweep
// served entirely from the characterization cache leaves the counter
// unchanged, which is how tests assert the cache short-circuits the NoC
// stage.
func (l *Lab) Decodes() uint64 { return l.runner.Decodes() }

// LabStats is a point-in-time snapshot of a Lab's counters, exported for
// monitoring (the hotnocd daemon serves it on /v1/stats).
type LabStats struct {
	// Scale and Workers echo the Lab's configuration.
	Scale   int `json:"scale"`
	Workers int `json:"workers"`
	// BusyWorkers gauges workers currently executing sweep tasks — a
	// utilization signal for services multiplexing jobs onto one Lab.
	BusyWorkers int `json:"busy_workers"`
	// Decodes counts engine block decodes, simulated or replayed from a
	// build's decode memo (see Lab.Decodes).
	Decodes uint64 `json:"decodes"`
	// CacheHits / CacheMisses count characterization requests served from
	// the cross-run cache versus simulated on the NoC.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// BuildHits / BuildMisses count configuration builds served from the
	// cross-run build cache (memory, or reconstituted from a persisted
	// snapshot) versus constructed cold with annealing and calibration. A
	// Lab warm-started from a populated cache directory reports zero
	// misses.
	BuildHits   uint64 `json:"build_hits"`
	BuildMisses uint64 `json:"build_misses"`
}

// Stats returns a snapshot of the Lab's decode counter, characterization
// and build cache hit/miss counters, and worker-pool utilization.
func (l *Lab) Stats() LabStats {
	hits, misses := l.runner.CacheStats()
	bHits, bMisses := l.runner.BuildStats()
	return LabStats{
		Scale:       l.runner.Scale(),
		Workers:     l.runner.Workers(),
		BusyWorkers: l.runner.Busy(),
		Decodes:     l.runner.Decodes(),
		CacheHits:   hits,
		CacheMisses: misses,
		BuildHits:   bHits,
		BuildMisses: bMisses,
	}
}

// Figure1 regenerates Figure 1 of the paper: every migration scheme on
// every requested circuit configuration (nil = A-E) at the base one-block
// period. Duplicate configuration names contribute their own rows but are
// counted once in the per-scheme means, so the §3 averages cannot be
// skewed by a repeated entry.
func (l *Lab) Figure1(ctx context.Context, configs []string) (*Figure1Result, error) {
	if configs == nil {
		configs = []string{"A", "B", "C", "D", "E"}
	}
	pts := SweepGrid(configs, Schemes(), nil)
	outs, err := l.SweepAll(ctx, pts)
	if err != nil {
		return nil, err
	}
	return Figure1FromOutcomes(configs, outs), nil
}

// PeriodSweep regenerates the migration-period trade-off on one
// configuration with one scheme: longer periods cut the throughput
// penalty while the peak temperature rises only marginally. All periods
// share one NoC characterization (nil blocks = 1, 4, 8).
func (l *Lab) PeriodSweep(ctx context.Context, config string, scheme Scheme, blocks []int) ([]PeriodPoint, error) {
	if len(blocks) == 0 {
		blocks = []int{1, 4, 8}
	}
	pts := SweepGrid([]string{config}, []Scheme{scheme}, blocks)
	outs, err := l.SweepAll(ctx, pts)
	if err != nil {
		return nil, err
	}
	return PeriodPointsFromOutcomes(outs), nil
}

// MigrationEnergy regenerates the migration-energy ablation for every
// scheme on one configuration (the paper highlights rotation on E). The
// with/without pair of each scheme shares one NoC characterization.
func (l *Lab) MigrationEnergy(ctx context.Context, config string) ([]EnergyStudy, error) {
	outs, err := l.SweepAll(ctx, MigrationEnergyGrid(config))
	if err != nil {
		return nil, err
	}
	return EnergyStudiesFromOutcomes(outs), nil
}

// Reactive evaluates threshold-triggered migration configurations on one
// chip configuration. It is sugar for sweeping ReactiveGrid(config, cfgs)
// — the configurations become reactive grid points and run on the same
// worker-pool pipeline as every other sweep, so entries selecting the
// same scheme share one NoC characterization (served from the Lab's
// cross-run cache when available), exactly as periodic period sweeps do,
// and the transient thermal evaluations run concurrently on the build's
// shared System, each worker stepping its share of one scheme's
// configurations in lockstep (System.EvaluateReactiveSet). Results are
// returned in input order and are bitwise identical to the fused
// System.RunReactive.
func (l *Lab) Reactive(ctx context.Context, config string, cfgs []ReactiveConfig) ([]ReactiveResult, error) {
	return SweepReactive(ctx, l, config, cfgs)
}
