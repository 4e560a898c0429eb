package hotnoc

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"hotnoc/obs"
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
	// The LabOptions set these six; NewLab reads cacheDir, cacheLimit
	// and registry only to build the caches and register the
	// instruments.
	scale      int
	workers    int
	cacheDir   string
	cacheLimit int
	progress   func(Event)
	registry   *obs.Registry

	builds *buildCache
	chars  *charCache
	met    *metrics

	// build constructs a cold build; tests inject failures here.
	build func(config string, scale int) (*Built, error)

	// decodes counts engine block decodes performed on behalf of this
	// Lab, and simulated those among them that drove the NoC rather
	// than replaying a repeat from the build's decode memo. A fully
	// cache-served sweep leaves both untouched. They and the four cache
	// counters below are the only store of these counts: the registry's
	// series are views of them.
	decodes   atomic.Uint64
	simulated atomic.Uint64
	// migrations and migrationsSimulated count the orbit migrations the
	// same characterizations executed, and those that stepped the NoC
	// rather than replaying the build's migration memo; /metrics reads
	// them.
	migrations          atomic.Uint64
	migrationsSimulated atomic.Uint64
	// steppedCycles counts the NoC cycles those characterizations
	// stepped, leaving out fast-forwarded and replayed ones: the cycles
	// the host simulated. /metrics reads it.
	steppedCycles atomic.Uint64

	// charHits / charMisses count characterization requests served from
	// the cross-run cache versus simulated on the NoC.
	charHits   atomic.Uint64
	charMisses atomic.Uint64

	// buildHits / buildMisses count builds served from the cross-run
	// cache (memory or reconstituted from a disk snapshot) versus
	// constructed cold (annealed + calibrated). One count per
	// (configuration, scale) over the Lab's lifetime.
	buildHits   atomic.Uint64
	buildMisses atomic.Uint64

	// busy gauges workers currently executing a task, for utilization
	// reporting.
	busy atomic.Int64

	// progressMu serializes progress callbacks. buildAccountMu guards the
	// per-key build accounting: emittedBuilds claims the one build-start
	// event (released on failure so a retry brackets again), and
	// countedBuilds dedups the done event and the hit-or-miss count — the
	// first request to resolve the key classifies it, exactly once,
	// however failures and retries interleave.
	progressMu     sync.Mutex
	buildAccountMu sync.Mutex
	emittedBuilds  map[buildKey]bool
	countedBuilds  map[buildKey]bool
}

// LabOption configures a Lab at construction.
type LabOption func(*Lab)

// WithScale divides the workload size (1 = the full paper-scale
// configuration, the default; 8 is a good smoke-test size).
func WithScale(scale int) LabOption {
	return func(l *Lab) { l.scale = scale }
}

// WithWorkers bounds the sweep worker pool (default GOMAXPROCS).
func WithWorkers(n int) LabOption {
	return func(l *Lab) { l.workers = n }
}

// WithCacheDir persists NoC characterizations and calibrated build
// snapshots (annealed placement + energy calibration) under dir for warm
// restarts. The directory is created on first write; corrupt or stale
// entries of either kind are ignored and recomputed, never fatal.
// Processes sharing the directory take an advisory per-entry lock on
// every cold compute, so each key is computed once.
func WithCacheDir(dir string) LabOption {
	return func(l *Lab) { l.cacheDir = dir }
}

// WithProgress registers a callback for build/characterize/evaluate
// events. Delivery is serialized across the Lab's workers; the callback
// must not block for long and must not call back into the Lab.
func WithProgress(fn func(Event)) LabOption {
	return func(l *Lab) { l.progress = fn }
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
	return func(l *Lab) { l.registry = reg }
}

// WithCacheLimit bounds the number of files of each cache artifact kind
// (characterizations and build snapshots, bounded independently) the
// cache directory may hold; once exceeded, the least-recently-used
// entries of that kind are evicted. Serving an entry counts as use. Zero
// (the default) keeps the directory unbounded. The limit only matters
// with WithCacheDir — a long-lived service sweeping many scales and
// schemes otherwise accretes files without bound.
func WithCacheLimit(n int) LabOption {
	return func(l *Lab) { l.cacheLimit = n }
}

// NewLab creates a session with the given options. A scale or worker
// count below one takes the default.
func NewLab(opts ...LabOption) *Lab {
	l := &Lab{
		build:         BuildConfig,
		emittedBuilds: map[buildKey]bool{},
		countedBuilds: map[buildKey]bool{},
	}
	for _, opt := range opts {
		opt(l)
	}
	if l.scale <= 0 {
		l.scale = 1
	}
	if l.workers <= 0 {
		l.workers = runtime.GOMAXPROCS(0)
	}
	l.builds = newBuildCache(l.cacheDir, l.cacheLimit)
	l.chars = newCharCache(l.cacheDir, l.cacheLimit)
	l.met = newMetrics(l.registry, l)
	return l
}

// Decodes returns the number of engine block decodes the Lab's
// characterizations have asked for, whether simulated on the
// cycle-accurate NoC or replayed from a build's decode memo (the
// hotnoc_decodes_simulated_total series counts the former). A sweep
// served entirely from the characterization cache leaves the counter
// unchanged, which is how tests assert the cache short-circuits the NoC
// stage.
func (l *Lab) Decodes() uint64 { return l.decodes.Load() }

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
	return LabStats{
		Scale:       l.scale,
		Workers:     l.workers,
		BusyWorkers: int(l.busy.Load()),
		Decodes:     l.decodes.Load(),
		CacheHits:   l.charHits.Load(),
		CacheMisses: l.charMisses.Load(),
		BuildHits:   l.buildHits.Load(),
		BuildMisses: l.buildMisses.Load(),
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
