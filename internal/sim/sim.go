// Package sim is the sweep/orchestration layer over the raw simulator: it
// executes an arbitrary configuration × scheme × period experiment grid
// concurrently on a worker pool, building each chip configuration once,
// characterizing each (configuration, scheme) orbit once — with
// cross-run build and characterization caches that can persist to disk,
// so a warm restart performs neither placement annealing, energy
// calibration nor cycle-accurate simulation — and evaluating every
// period/ablation variant against that shared characterization.
//
// The paper's studies — Figure 1, the migration-period sweep, the
// migration-energy ablation — are all instances of such grids, and the
// hotnoc.Lab façade drives them through this runner. Results are
// bitwise identical to a serial walk of the same grid: every stage of the
// pipeline is deterministic, each characterization simulates on a System
// clone of its own, evaluations share the build's System (evaluation is a
// pure function of its inputs), and outcomes stream in point order
// regardless of completion order.
//
//hotnoc:deterministic
package sim

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hotnoc/internal/chipcfg"
	"hotnoc/internal/core"
	"hotnoc/obs"
)

// Kind discriminates the experiment a grid point runs: the paper's
// periodic migration policy or the library's threshold-triggered reactive
// extension. New experiment kinds are a Kind value plus an evaluation arm
// in runTask — a data change, not an API change.
type Kind string

const (
	// KindPeriodic evaluates the fixed-period policy (System.Evaluate).
	KindPeriodic Kind = "periodic"
	// KindReactive evaluates the threshold-triggered policy
	// (System.EvaluateReactive).
	KindReactive Kind = "reactive"
)

// Point is one cell of an experiment grid: a tagged union of a periodic
// experiment (Config, Scheme, Blocks, ExcludeMigrationEnergy) and a
// reactive one (Config, Scheme, Reactive). The zero Reactive field means
// periodic, so pre-existing literals keep their meaning; the Periodic and
// Reactive constructors build the two arms explicitly. Both kinds key
// their NoC characterization on (Config, Scheme, scale), so mixed grids
// pay for each orbit exactly once regardless of kind.
type Point struct {
	// Config is the chip configuration letter (A-E).
	Config string
	// Scheme is the migration scheme, for either kind. Schemes are
	// identified by name when grouping work and caching characterizations,
	// so custom schemes must have unique names.
	Scheme core.Scheme
	// Blocks is the periodic migration period in decoded blocks (0 = 1;
	// negative periods are rejected before any work starts). It must be
	// zero on reactive points.
	Blocks int
	// ExcludeMigrationEnergy drops migration energy from the thermal
	// schedule (the paper's §3 ablation). Periodic points only.
	ExcludeMigrationEnergy bool
	// Reactive, when non-nil, makes this a reactive point: the
	// threshold-triggered policy evaluated with these parameters. Its
	// Scheme field, when set, must agree with the point's Scheme.
	Reactive *core.ReactiveConfig
}

// Periodic returns a periodic grid point: config under scheme, migrating
// every blocks decoded blocks.
func Periodic(config string, scheme core.Scheme, blocks int) Point {
	return Point{Config: config, Scheme: scheme, Blocks: blocks}
}

// Reactive returns a reactive grid point: config under cfg's
// threshold-triggered policy. The point's scheme is cfg.Scheme.
func Reactive(config string, cfg core.ReactiveConfig) Point {
	return Point{Config: config, Scheme: cfg.Scheme, Reactive: &cfg}
}

// Kind reports the experiment this point runs.
func (p Point) Kind() Kind {
	if p.Reactive != nil {
		return KindReactive
	}
	return KindPeriodic
}

// Validate rejects a malformed point: unknown configuration, scheme
// without a step function, negative period, or periodic-only fields set
// on a reactive point. It is the per-point half of the runner's fail-fast
// grid validation, shared with the hotnocd daemon so a bad submission is
// rejected with the same diagnosis it would fail with mid-sweep.
func (p Point) Validate() error {
	if _, err := chipcfg.ByName(p.Config); err != nil {
		return err
	}
	if p.Scheme.StepFn == nil {
		return fmt.Errorf("scheme %q has no step function", p.Scheme.Name)
	}
	if p.Reactive == nil {
		if p.Blocks < 0 {
			return fmt.Errorf("negative migration period %d blocks", p.Blocks)
		}
		return nil
	}
	if p.Blocks != 0 {
		return fmt.Errorf("reactive point sets a migration period (%d blocks)", p.Blocks)
	}
	if p.ExcludeMigrationEnergy {
		return fmt.Errorf("reactive point sets the migration-energy ablation")
	}
	if name := p.Reactive.Scheme.Name; name != "" && name != p.Scheme.Name {
		return fmt.Errorf("reactive config selects scheme %q but the point is for %q",
			name, p.Scheme.Name)
	}
	if p.Reactive.SimBlocks < 0 {
		return fmt.Errorf("negative reactive horizon %d blocks", p.Reactive.SimBlocks)
	}
	if p.Reactive.WarmupBlocks < 0 {
		return fmt.Errorf("negative reactive warmup %d blocks", p.Reactive.WarmupBlocks)
	}
	return nil
}

// Outcome pairs a grid point with its evaluation. Outcomes of the same
// configuration share one *chipcfg.Built. Exactly one result arm is
// populated, matching the point's kind: Result for periodic points,
// Reactive for reactive ones.
type Outcome struct {
	Point Point
	Built *chipcfg.Built
	// Result is the periodic baseline-versus-migrated comparison; zero for
	// reactive points.
	Result core.RunResult
	// Reactive is the threshold-policy summary; nil for periodic points.
	Reactive *core.ReactiveResult
}

// Options tunes a Runner.
type Options struct {
	// Scale divides the workload size (default 1 = paper scale).
	Scale int
	// Workers bounds the worker pool (default GOMAXPROCS).
	Workers int
	// CacheDir persists the two expensive artifact kinds as gob files:
	// NoC characterizations (keyed by configuration, scheme and scale)
	// and calibrated build snapshots (keyed by configuration and scale).
	// A fresh process pointed at the same directory skips both the
	// cycle-accurate NoC stage and the annealing + calibration stage.
	// Empty keeps both caches memory-only.
	CacheDir string
	// CacheLimit bounds the number of files of each artifact kind kept
	// under CacheDir (characterizations and build snapshots are bounded
	// independently); least-recently-used entries are evicted once a
	// kind's count exceeds it. Zero keeps the directory unbounded.
	CacheLimit int
	// Progress, when set, receives build/characterize/evaluate events as
	// the sweep pipeline advances. Delivery is serialized; the callback
	// must not block for long and must not call back into the runner.
	Progress func(Event)
	// Metrics, when set, registers the runner's pipeline instruments on
	// this registry — stage-latency histograms, cache hit/miss counters,
	// decode and point counters, all labeled by scale — and records into
	// them as sweeps run. Recording is allocation-free. Runners of
	// different scales may share one registry; keep one runner per
	// (registry, scale): a later runner at the same scale replaces the
	// earlier one's decode and cache-request series, while the stage
	// histograms and the evaluated-point counter accumulate across both.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Runner executes experiment grids. A Runner is safe for concurrent use
// and may be reused across Run calls; its build cache and characterization
// cache persist, so repeated sweeps over the same grid skip construction
// and the cycle-accurate NoC stage entirely.
type Runner struct {
	opts   Options
	builds *BuildCache
	chars  *CharCache
	met    *metrics

	// decodes counts engine block decodes performed on behalf of this
	// runner, and simulated those among them that drove the NoC rather
	// than replaying a repeat from the build's decode memo. A fully
	// cache-served sweep leaves both untouched. They and the four cache
	// counters below are the only store of these counts: the registry's
	// series are views of them.
	decodes   atomic.Uint64
	simulated atomic.Uint64

	// charHits / charMisses count characterization requests served from
	// the cross-run cache versus simulated on the NoC.
	charHits   atomic.Uint64
	charMisses atomic.Uint64

	// buildHits / buildMisses count builds served from the cross-run
	// cache (memory or reconstituted from a disk snapshot) versus
	// constructed cold (annealed + calibrated). One count per
	// (configuration, scale) over the runner's lifetime.
	buildHits   atomic.Uint64
	buildMisses atomic.Uint64

	// busy gauges workers currently executing a task, for utilization
	// reporting.
	busy atomic.Int64

	// progressMu serializes Progress callbacks. buildAccountMu guards the
	// per-key build accounting: emittedBuilds claims the one build-start
	// event (released on failure so a retry brackets again), and
	// countedBuilds dedups the done event and the hit-or-miss count — the
	// first request to resolve the key classifies it, exactly once,
	// however failures and retries interleave.
	progressMu     sync.Mutex
	buildAccountMu sync.Mutex
	emittedBuilds  map[BuildKey]bool
	countedBuilds  map[BuildKey]bool
}

// NewRunner returns a runner with the given options.
func NewRunner(opts Options) *Runner {
	opts = opts.withDefaults()
	r := &Runner{
		opts:          opts,
		builds:        NewBuildCache(opts.CacheDir, opts.CacheLimit),
		chars:         NewCharCache(opts.CacheDir, opts.CacheLimit),
		emittedBuilds: map[BuildKey]bool{},
		countedBuilds: map[BuildKey]bool{},
	}
	r.met = newMetrics(opts.Metrics, r)
	return r
}

// Decodes returns the number of engine block decodes this runner has
// performed — the cost of the NoC characterizations it could not serve
// from cache. Sweeps repeated over the same grid (or warm-restarted from
// a cache directory) leave the counter unchanged.
func (r *Runner) Decodes() uint64 { return r.decodes.Load() }

// CacheStats returns how many characterization requests were served from
// the cross-run cache (memory or disk) versus simulated on the
// cycle-accurate NoC.
func (r *Runner) CacheStats() (hits, misses uint64) {
	return r.charHits.Load(), r.charMisses.Load()
}

// BuildStats returns how many configuration builds were served from the
// cross-run build cache (memory or reconstituted from a persisted
// snapshot) versus constructed cold with annealing and calibration. A
// process warm-started from a populated cache directory reports zero
// misses.
func (r *Runner) BuildStats() (hits, misses uint64) {
	return r.buildHits.Load(), r.buildMisses.Load()
}

// Workers returns the size of the runner's worker pool.
func (r *Runner) Workers() int { return r.opts.Workers }

// Scale returns the workload divisor the runner was configured with.
func (r *Runner) Scale() int { return r.opts.Scale }

// Busy returns how many workers are currently executing a task — a
// utilization gauge for services multiplexing jobs onto one runner.
func (r *Runner) Busy() int { return int(r.busy.Load()) }

// emitter merges the runner-wide Progress callback with one call's own
// progress function into a single serialized sink. Both see every event;
// delivery order is the same for both.
func (r *Runner) emitter(progress func(Event)) func(Event) {
	if r.opts.Progress == nil && progress == nil {
		return nil
	}
	return func(ev Event) {
		r.progressMu.Lock()
		defer r.progressMu.Unlock()
		if r.opts.Progress != nil {
			r.opts.Progress(ev)
		}
		if progress != nil {
			progress(ev)
		}
	}
}

func emit(fn func(Event), ev Event) {
	if fn != nil {
		fn(ev)
	}
}

// builtFor resolves one configuration's calibrated build through the
// cache, emitting one build event pair — and taking one hit-or-miss
// count — the first time the key resolves on this runner. The done
// event's CacheHit reports whether the expensive stages were skipped
// (snapshot restored from disk).
//
// The start event and the done-plus-count are claimed independently:
// the first requester emits build-start before resolving, but the done
// event and the hit-or-miss classification belong to whichever request
// actually resolves the key first — concurrent requesters of one
// resolution all observe the same hit flag, so the count is
// well-defined however they race. On failure the start claim is
// released for a later retry, unless a concurrent request resolved the
// key in the meantime (its done event pairs with the start already
// emitted).
func (r *Runner) builtFor(config string, prog func(Event)) (*chipcfg.Built, error) {
	key := BuildKey{Config: config, Scale: r.opts.Scale}
	r.buildAccountMu.Lock()
	first := !r.emittedBuilds[key]
	r.emittedBuilds[key] = true
	r.buildAccountMu.Unlock()
	if first {
		emit(prog, Event{Stage: StageBuildStart, Config: config, Scale: r.opts.Scale, Point: -1})
	}
	//hotnoc:allow determinism wall-clock metric timing only
	start := time.Now()
	built, hit, err := r.builds.Get(config, r.opts.Scale)
	if err != nil {
		r.buildAccountMu.Lock()
		if first && !r.countedBuilds[key] {
			delete(r.emittedBuilds, key)
		}
		r.buildAccountMu.Unlock()
		return nil, fmt.Errorf("sim: config %s: %w", config, err)
	}
	r.buildAccountMu.Lock()
	count := !r.countedBuilds[key]
	r.countedBuilds[key] = true
	r.buildAccountMu.Unlock()
	if count {
		if hit {
			r.buildHits.Add(1)
		} else {
			r.buildMisses.Add(1)
			//hotnoc:allow determinism wall-clock metric timing only
			r.met.coldBuild(time.Since(start))
		}
		emit(prog, Event{Stage: StageBuildDone, Config: config, Scale: r.opts.Scale, Point: -1,
			CacheHit: hit})
	}
	return built, nil
}

// charSeen tracks which characterization keys one sweep has already
// accounted for. Reactive cells of one (configuration, scheme) may run
// as several chunk tasks, each resolving the same key; without the
// dedup, one orbit would count several cache hits and emit a
// worker-count-dependent number of StageCharacterizeDone events.
type charSeen struct {
	mu   sync.Mutex
	keys map[CharKey]bool
}

// first reports whether key has not been accounted for yet, marking it.
func (s *charSeen) first(key CharKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.keys[key] {
		return false
	}
	s.keys[key] = true
	return true
}

// charFor resolves one (configuration, scheme) characterization through
// the cross-run cache, simulating the orbit on the cycle-accurate NoC
// only on a miss. The hit/miss counters and the StageCharacterizeDone
// event fire once per key per sweep (seen dedups them), regardless of
// how many tasks the sweep split the key's cells into. The accounting
// claim is taken before the cache lookup, so the sweep's first
// requester — the one that observed whether the key was
// already resolved — is the one that classifies it; a later chunk task
// served from the freshly resolved entry cannot relabel the sweep's
// compute as a hit.
func (r *Runner) charFor(config string, scheme core.Scheme, prog func(Event), seen *charSeen) (*core.Characterization, *chipcfg.Built, error) {
	built, err := r.builtFor(config, prog)
	if err != nil {
		return nil, nil, err
	}
	key := CharKey{Config: config, Scheme: scheme.Name, Scale: r.opts.Scale}
	account := seen.first(key)
	//hotnoc:allow determinism wall-clock metric timing only
	start := time.Now()
	ch, hit, err := r.chars.Get(key, built.System.Grid.N(), func() (*core.Characterization, error) {
		emit(prog, Event{Stage: StageCharacterizeStart, Config: config, Scale: r.opts.Scale,
			Scheme: scheme.Name, Point: -1})
		// The characterizing system is a private clone: Characterize
		// drives the engine, network and migrator a System holds. The
		// clone's engine shares the build's decode memo, so decodes that
		// repeat across schemes are simulated once.
		sys, err := built.System.Clone()
		if err != nil {
			return nil, fmt.Errorf("clone: %w", err)
		}
		ch, err := sys.Characterize(scheme)
		r.decodes.Add(sys.Engine.Decodes)
		r.simulated.Add(sys.Engine.SimulatedDecodes)
		return ch, err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("sim: config %s scheme %s: %w", config, scheme.Name, err)
	}
	if account {
		if hit {
			r.charHits.Add(1)
		} else {
			r.charMisses.Add(1)
			//hotnoc:allow determinism wall-clock metric timing only
			r.met.coldCharacterization(time.Since(start))
		}
		emit(prog, Event{Stage: StageCharacterizeDone, Config: config, Scale: r.opts.Scale,
			Scheme: scheme.Name, Point: -1, CacheHit: hit})
	}
	return ch, built, nil
}

// Built returns the calibrated build for one configuration at the
// runner's scale, constructing it on first use.
func (r *Runner) Built(config string) (*chipcfg.Built, error) {
	return r.builtFor(config, r.emitter(nil))
}

// ValidatePoints fails fast on malformed grids — unknown configuration
// names, schemes without step functions, negative periods, malformed
// reactive parameters — before any build or worker starts, naming the
// offending point. The runner applies it at the head of every sweep; the
// hotnocd daemon applies the same check at submission so a bad grid is a
// 400 naming the point, not a job failing mid-stream.
func ValidatePoints(pts []Point) error {
	for i, p := range pts {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("sim: point %d: %w", i, err)
		}
	}
	return nil
}

// task is the unit of worker scheduling: all grid points sharing one
// (configuration, scheme), which therefore share one characterization.
type task struct {
	config string
	scheme core.Scheme
	// cells are the indices into the original point slice, in order.
	cells []int
}

// Run evaluates every point of the grid and returns outcomes in point
// order. Run is Stream collected into a slice; it stops at the first
// error or context cancellation.
func (r *Runner) Run(ctx context.Context, pts []Point) ([]Outcome, error) {
	if len(pts) == 0 {
		return nil, nil
	}
	out := make([]Outcome, 0, len(pts))
	for o, err := range r.Stream(ctx, pts) {
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

// Stream evaluates the grid concurrently and yields outcomes in point
// order as they complete, so a consumer renders early cells of a long
// sweep while later ones are still simulating. Points sharing a
// configuration share one calibrated build; points sharing
// (configuration, scheme) share one NoC characterization, served from the
// cross-run cache when available. On error or context cancellation the
// sequence yields one final (zero Outcome, error) pair and stops. An
// early break cancels outstanding work before returning.
func (r *Runner) Stream(ctx context.Context, pts []Point) iter.Seq2[Outcome, error] {
	return r.StreamWith(ctx, pts, nil)
}

// StreamWith is Stream with a per-call progress callback: progress
// receives exactly the events this sweep generates, alongside (not
// instead of) the runner-wide Options.Progress callback. Services
// multiplexing concurrent jobs onto one runner use it to attribute
// pipeline events to the job whose sweep triggered them. Delivery is
// serialized with all other progress callbacks on the runner.
func (r *Runner) StreamWith(ctx context.Context, pts []Point, progress func(Event)) iter.Seq2[Outcome, error] {
	prog := r.emitter(progress)
	return func(yield func(Outcome, error) bool) {
		if len(pts) == 0 {
			return
		}
		if err := ValidatePoints(pts); err != nil {
			yield(Outcome{}, err)
			return
		}
		tasks := groupPoints(pts, r.opts.Workers)
		seen := &charSeen{keys: map[CharKey]bool{}}

		ctx, cancel := context.WithCancel(ctx)
		defer cancel()

		out := make([]Outcome, len(pts))
		ready := make([]chan struct{}, len(pts))
		for i := range ready {
			ready[i] = make(chan struct{})
		}

		var failErr error
		var failOnce sync.Once
		failed := make(chan struct{})
		fail := func(err error) {
			failOnce.Do(func() {
				failErr = err
				close(failed)
				cancel()
			})
		}

		taskCh := make(chan task)
		workers := min(r.opts.Workers, len(tasks))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for t := range taskCh {
					if ctx.Err() != nil {
						return
					}
					r.busy.Add(1)
					err := r.runTask(ctx, t, pts, out, ready, prog, seen)
					r.busy.Add(-1)
					if err != nil {
						fail(err)
						return
					}
				}
			}()
		}
		go func() {
			defer close(taskCh)
			for _, t := range tasks {
				//hotnoc:allow determinism task feed vs. cancel; which tasks run affects timing, never the per-point outcome
				select {
				case taskCh <- t:
				case <-ctx.Done():
					return
				}
			}
		}()
		defer wg.Wait()

		for i := range pts {
			select {
			case <-ready[i]:
			default:
				//hotnoc:allow determinism failure/cancel unwind only; out[i] is fixed before ready[i] closes, so the yielded stream is order-independent
				select {
				case <-ready[i]:
				case <-failed:
					wg.Wait()
					yield(Outcome{}, failErr)
					return
				case <-ctx.Done():
					wg.Wait()
					select {
					case <-failed:
						yield(Outcome{}, failErr)
					default:
						yield(Outcome{}, ctx.Err())
					}
					return
				}
			}
			if !yield(out[i], nil) {
				cancel()
				return
			}
		}
	}
}

// runTask resolves one (configuration, scheme) characterization — cache
// or cycle-accurate NoC — and evaluates every variant of the group,
// periodic and reactive alike, on the build's shared System, marking each
// point ready as its outcome lands. Mixed grids therefore share one orbit
// characterization across kinds: a reactive point never re-simulates an
// orbit a periodic point (or a cached run) already paid for.
func (r *Runner) runTask(ctx context.Context, t task, pts []Point, out []Outcome, ready []chan struct{}, prog func(Event), seen *charSeen) error {
	ch, built, err := r.charFor(t.config, t.scheme, prog, seen)
	if err != nil {
		return err
	}
	for _, idx := range t.cells {
		if err := ctx.Err(); err != nil {
			return err
		}
		p := pts[idx]
		o := Outcome{Point: p, Built: built}
		//hotnoc:allow determinism wall-clock metric timing only; does not influence the outcome
		evalStart := time.Now()
		switch p.Kind() {
		case KindReactive:
			cfg := *p.Reactive
			// The point's Scheme is authoritative (it keyed the shared
			// characterization); a spec that carried only parameters gets
			// the step function filled in here.
			cfg.Scheme = t.scheme
			res, err := built.System.EvaluateReactive(ch, cfg)
			if err != nil {
				return fmt.Errorf("sim: config %s scheme %s reactive trigger %g: %w",
					p.Config, p.Scheme.Name, cfg.TriggerC, err)
			}
			o.Reactive = &res
		default:
			res, err := built.System.Evaluate(ch, core.EvalConfig{
				BlocksPerPeriod:        p.Blocks,
				ExcludeMigrationEnergy: p.ExcludeMigrationEnergy,
			})
			if err != nil {
				return fmt.Errorf("sim: config %s scheme %s blocks %d: %w",
					p.Config, p.Scheme.Name, p.Blocks, err)
			}
			o.Result = res
		}
		//hotnoc:allow determinism wall-clock metric timing only; the outcome itself is already computed
		r.met.evaluateDone(time.Since(evalStart))
		out[idx] = o
		close(ready[idx])
		emit(prog, Event{Stage: StageEvaluateDone, Config: p.Config, Scale: r.opts.Scale,
			Scheme: p.Scheme.Name, Point: idx, Blocks: p.Blocks, Kind: string(p.Kind())})
	}
	return nil
}

// groupPoints partitions the grid into tasks, ordered by their first
// appearance so scheduling is deterministic. Periodic cells of one
// (configuration, scheme) form a single task: their thermal evaluations
// are cheap. Reactive cells of one
// (configuration, scheme) are split into up to workers contiguous chunk
// tasks: each cell is a full transient integration — the dominant cost
// of a reactive sweep once the orbit is characterized — so a
// single-scheme trigger sweep must be able to spread across the pool.
// Chunk tasks request the same characterization key; the cache's
// per-key singleflight still simulates the orbit at most once, and
// results do not depend on the chunking (evaluation on the shared System
// is a pure function of its inputs), so outcomes stay bitwise identical
// across worker counts.
func groupPoints(pts []Point, workers int) []task {
	type gkey struct {
		config, scheme string
		kind           Kind
	}
	order := map[gkey]int{}
	var groups []task
	for i, p := range pts {
		k := gkey{config: p.Config, scheme: p.Scheme.Name, kind: p.Kind()}
		ti, ok := order[k]
		if !ok {
			ti = len(groups)
			order[k] = ti
			groups = append(groups, task{config: p.Config, scheme: p.Scheme})
		}
		groups[ti].cells = append(groups[ti].cells, i)
	}
	var tasks []task
	for _, g := range groups {
		if n := min(workers, len(g.cells)); n > 1 && pts[g.cells[0]].Kind() == KindReactive {
			for c := 0; c < n; c++ {
				lo, hi := c*len(g.cells)/n, (c+1)*len(g.cells)/n
				tasks = append(tasks, task{config: g.config, scheme: g.scheme, cells: g.cells[lo:hi]})
			}
			continue
		}
		tasks = append(tasks, g)
	}
	// Largest groups first: with more tasks than workers this packs the
	// pool better without affecting result order.
	sort.SliceStable(tasks, func(i, j int) bool {
		return len(tasks[i].cells) > len(tasks[j].cells)
	})
	return tasks
}

// Grid returns the cross product configs × schemes × blocks in
// configuration-major, scheme-then-period-minor order — the natural
// ordering of the paper's figures. A nil or empty blocks slice means the
// one-block base period.
func Grid(configs []string, schemes []core.Scheme, blocks []int) []Point {
	if len(blocks) == 0 {
		blocks = []int{1}
	}
	pts := make([]Point, 0, len(configs)*len(schemes)*len(blocks))
	for _, c := range configs {
		for _, s := range schemes {
			for _, b := range blocks {
				pts = append(pts, Point{Config: c, Scheme: s, Blocks: b})
			}
		}
	}
	return pts
}

// ReactiveGrid returns one reactive point per threshold configuration on
// one chip configuration, in input order. Configurations selecting the
// same scheme share one NoC characterization when swept, exactly as the
// periods of a periodic period sweep do.
func ReactiveGrid(config string, cfgs []core.ReactiveConfig) []Point {
	pts := make([]Point, len(cfgs))
	for i, cfg := range cfgs {
		pts[i] = Reactive(config, cfg)
	}
	return pts
}
