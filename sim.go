// The sweep pipeline: a Lab executes an arbitrary configuration × scheme
// × period experiment grid concurrently on a worker pool, building each
// chip configuration once, characterizing each (configuration, scheme)
// orbit once — with cross-run build and characterization caches that can
// persist to disk, so a warm restart performs neither placement
// annealing, energy calibration nor cycle-accurate simulation — and
// evaluating every period/ablation variant against that shared
// characterization.
//
// The paper's studies — Figure 1, the migration-period sweep, the
// migration-energy ablation — are all instances of such grids. Results
// are bitwise identical to a serial walk of the same grid: every stage of
// the pipeline is deterministic, each characterization simulates on a
// System clone of its own, evaluations share the build's System
// (evaluation is a pure function of its inputs), and outcomes stream in
// point order regardless of completion order.
//
//hotnoc:deterministic

package hotnoc

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
	"sync"
	"time"

	"hotnoc/internal/chipcfg"
	"hotnoc/internal/core"
)

// PointKind discriminates the experiment a SweepPoint runs: the paper's
// periodic migration policy or the library's threshold-triggered reactive
// extension. New experiment kinds are a PointKind value plus an
// evaluation arm in runTask — a data change, not an API change.
type PointKind string

// The two experiment kinds a SweepPoint can run.
const (
	// KindPeriodic is the paper's fixed-period migration policy
	// (System.Evaluate).
	KindPeriodic PointKind = "periodic"
	// KindReactive is the threshold-triggered (sensor-driven) policy
	// (System.EvaluateReactiveSet).
	KindReactive PointKind = "reactive"
)

// SweepPoint is one cell of an experiment grid: a tagged union of a
// periodic experiment (Config, Scheme, Blocks, ExcludeMigrationEnergy)
// and a reactive one (Config, Scheme, Reactive). The zero Reactive field
// means periodic, so pre-existing literals keep their meaning;
// PeriodicPoint and ReactivePoint build the two arms explicitly. Both
// kinds key their NoC characterization on (Config, Scheme, scale), so
// mixed grids pay for each orbit exactly once regardless of kind.
type SweepPoint struct {
	// Config is the chip configuration letter (A-E).
	Config string
	// Scheme is the migration scheme, for either kind. Schemes are
	// identified by name when grouping work and caching characterizations,
	// so custom schemes must have unique names.
	Scheme Scheme
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
	Reactive *ReactiveConfig
}

// PeriodicPoint returns a periodic grid point: config under scheme,
// migrating every blocks decoded blocks.
func PeriodicPoint(config string, scheme Scheme, blocks int) SweepPoint {
	return SweepPoint{Config: config, Scheme: scheme, Blocks: blocks}
}

// ReactivePoint returns a reactive grid point: config under cfg's
// threshold-triggered policy (the point's scheme is cfg.Scheme). Reactive
// points mix freely with periodic ones in a single Lab.Sweep, sharing NoC
// characterizations per (config, scheme).
func ReactivePoint(config string, cfg ReactiveConfig) SweepPoint {
	return SweepPoint{Config: config, Scheme: cfg.Scheme, Reactive: &cfg}
}

// Kind reports the experiment this point runs.
func (p SweepPoint) Kind() PointKind {
	if p.Reactive != nil {
		return KindReactive
	}
	return KindPeriodic
}

// Validate rejects a malformed point: unknown configuration, scheme
// without a step function, negative period, periodic-only fields set on
// a reactive point, or a NaN or infinite reactive trigger, sensor
// resolution or step. It is the per-point half of ValidateSweep.
func (p SweepPoint) Validate() error {
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
	return p.Reactive.CheckFinite()
}

// SweepOutcome pairs a grid point with its calibrated build and its
// evaluation. Outcomes of the same configuration share one *Built.
// Exactly one result arm is populated, matching the point's kind: Result
// for periodic points, Reactive for reactive ones.
type SweepOutcome struct {
	Point SweepPoint
	Built *Built
	// Result is the periodic baseline-versus-migrated comparison; zero for
	// reactive points.
	Result RunResult
	// Reactive is the threshold-policy summary; nil for periodic points.
	Reactive *ReactiveResult
}

// emitter merges the Lab-wide WithProgress callback with one call's own
// progress function into a single serialized sink. Both see every event;
// delivery order is the same for both.
func (l *Lab) emitter(progress func(Event)) func(Event) {
	if l.progress == nil && progress == nil {
		return nil
	}
	return func(ev Event) {
		l.progressMu.Lock()
		defer l.progressMu.Unlock()
		if l.progress != nil {
			l.progress(ev)
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
// count — the first time the key resolves on this Lab. The done
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
func (l *Lab) builtFor(config string, prog func(Event)) (*Built, error) {
	key := buildKey{Config: config, Scale: l.scale}
	l.buildAccountMu.Lock()
	first := !l.emittedBuilds[key]
	l.emittedBuilds[key] = true
	l.buildAccountMu.Unlock()
	if first {
		emit(prog, Event{Stage: StageBuildStart, Config: config, Scale: l.scale, Point: -1})
	}
	//hotnoc:allow determinism wall-clock metric timing only
	start := time.Now()
	built, hit, err := l.builds.Get(key, func() (*Built, error) {
		return l.build(config, l.scale)
	})
	if err != nil {
		l.buildAccountMu.Lock()
		if first && !l.countedBuilds[key] {
			delete(l.emittedBuilds, key)
		}
		l.buildAccountMu.Unlock()
		return nil, fmt.Errorf("sim: config %s: %w", config, err)
	}
	l.buildAccountMu.Lock()
	count := !l.countedBuilds[key]
	l.countedBuilds[key] = true
	l.buildAccountMu.Unlock()
	if count {
		if hit {
			l.buildHits.Add(1)
		} else {
			l.buildMisses.Add(1)
			//hotnoc:allow determinism wall-clock metric timing only
			l.met.coldBuild(time.Since(start))
		}
		emit(prog, Event{Stage: StageBuildDone, Config: config, Scale: l.scale, Point: -1,
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
	keys map[charKey]bool
}

// first reports whether key has not been accounted for yet, marking it.
func (s *charSeen) first(key charKey) bool {
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
func (l *Lab) charFor(config string, scheme Scheme, prog func(Event), seen *charSeen) (*Characterization, *Built, error) {
	built, err := l.builtFor(config, prog)
	if err != nil {
		return nil, nil, err
	}
	key := charKey{Config: config, Scheme: scheme.Name, Scale: l.scale}
	account := seen.first(key)
	//hotnoc:allow determinism wall-clock metric timing only
	start := time.Now()
	ch, hit, err := l.chars.Get(key, func() (*Characterization, error) {
		emit(prog, Event{Stage: StageCharacterizeStart, Config: config, Scale: l.scale,
			Scheme: scheme.Name, Point: -1})
		// The characterizing system is a private clone: Characterize
		// drives the engine, network and migrator a System holds. The
		// clone's engine and migrator share the build's decode and
		// migration memos, so decodes and migrations that repeat across
		// schemes are simulated once.
		sys, err := built.System.Clone()
		if err != nil {
			return nil, fmt.Errorf("clone: %w", err)
		}
		ch, err := sys.Characterize(scheme)
		l.decodes.Add(sys.Engine.Decodes)
		l.simulated.Add(sys.Engine.SimulatedDecodes)
		l.migrations.Add(sys.Migrator.Migrations)
		l.migrationsSimulated.Add(sys.Migrator.SimulatedMigrations)
		l.steppedCycles.Add(sys.Engine.Net.SteppedCycles())
		return ch, err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("sim: config %s scheme %s: %w", config, scheme.Name, err)
	}
	if account {
		if hit {
			l.charHits.Add(1)
		} else {
			l.charMisses.Add(1)
			//hotnoc:allow determinism wall-clock metric timing only
			l.met.coldCharacterization(time.Since(start))
		}
		emit(prog, Event{Stage: StageCharacterizeDone, Config: config, Scale: l.scale,
			Scheme: scheme.Name, Point: -1, CacheHit: hit})
	}
	return ch, built, nil
}

// Build returns the calibrated build for one configuration at the Lab's
// scale, constructing it on first use and serving the Lab's build cache
// afterwards.
func (l *Lab) Build(config string) (*Built, error) {
	return l.builtFor(config, l.emitter(nil))
}

// ValidateSweep fails fast on malformed grids — unknown configuration
// names, schemes without step functions, negative periods, malformed
// reactive parameters — before any build or worker starts, naming the
// offending point. A Lab applies it at the head of every sweep; the
// hotnocd daemon applies the same check at submission so a bad grid is a
// 400 naming the point, not a job failing mid-stream.
func ValidateSweep(pts []SweepPoint) error {
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
	scheme Scheme
	// cells are the indices into the original point slice, in order.
	cells []int
}

// SweepAll is Sweep collected into a slice, for callers that want the
// whole grid at once; it stops at the first error or context
// cancellation.
func (l *Lab) SweepAll(ctx context.Context, pts []SweepPoint) ([]SweepOutcome, error) {
	if len(pts) == 0 {
		return nil, nil
	}
	out := make([]SweepOutcome, 0, len(pts))
	for o, err := range l.Sweep(ctx, pts) {
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

// Sweep evaluates an arbitrary configuration × scheme × period grid
// concurrently and streams outcomes in point order as they complete, as a
// Go 1.23 range-over-func sequence, so a consumer renders early cells of
// a long sweep while later ones are still simulating. Each configuration
// is built once, each (configuration, scheme) orbit is characterized on
// the cycle-accurate NoC once — or served from the Lab's cross-run cache
// — and every period/ablation variant reuses that characterization for a
// cheap thermal evaluation. Results are bitwise identical to a serial
// walk of the same grid. On error or context cancellation the sequence
// yields one final (zero outcome, error) pair and stops; breaking early
// cancels in-flight work before returning.
func (l *Lab) Sweep(ctx context.Context, pts []SweepPoint) iter.Seq2[SweepOutcome, error] {
	return l.SweepWithProgress(ctx, pts, nil)
}

// SweepWithProgress is Sweep with a per-call progress callback: progress
// receives exactly the events this sweep generates, alongside (not
// instead of) any WithProgress callback. A service multiplexing
// concurrent jobs onto one Lab uses it to attribute pipeline events to
// the job whose sweep triggered them. Delivery is serialized with all
// other progress callbacks on the Lab.
func (l *Lab) SweepWithProgress(ctx context.Context, pts []SweepPoint, progress func(Event)) iter.Seq2[SweepOutcome, error] {
	prog := l.emitter(progress)
	return func(yield func(SweepOutcome, error) bool) {
		if len(pts) == 0 {
			return
		}
		if err := ValidateSweep(pts); err != nil {
			yield(SweepOutcome{}, err)
			return
		}
		tasks := groupPoints(pts, l.workers)
		seen := &charSeen{keys: map[charKey]bool{}}

		ctx, cancel := context.WithCancel(ctx)
		defer cancel()

		out := make([]SweepOutcome, len(pts))
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
		workers := min(l.workers, len(tasks))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for t := range taskCh {
					if ctx.Err() != nil {
						return
					}
					l.busy.Add(1)
					err := l.runTask(ctx, t, pts, out, ready, prog, seen)
					l.busy.Add(-1)
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
					yield(SweepOutcome{}, failErr)
					return
				case <-ctx.Done():
					wg.Wait()
					select {
					case <-failed:
						yield(SweepOutcome{}, failErr)
					default:
						yield(SweepOutcome{}, ctx.Err())
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
// orbit a periodic point (or a cached run) already paid for. The task's
// reactive cells are evaluated last, as one set
// (System.EvaluateReactiveSet), so up to four of their trigger runs share
// each transient solve; their outcomes land, and cancellation is next
// checked, when the whole set is done.
func (l *Lab) runTask(ctx context.Context, t task, pts []SweepPoint, out []SweepOutcome, ready []chan struct{}, prog func(Event), seen *charSeen) error {
	ch, built, err := l.charFor(t.config, t.scheme, prog, seen)
	if err != nil {
		return err
	}
	var reactive []int
	for _, idx := range t.cells {
		if err := ctx.Err(); err != nil {
			return err
		}
		p := pts[idx]
		if p.Kind() == KindReactive {
			reactive = append(reactive, idx)
			continue
		}
		//hotnoc:allow determinism wall-clock metric timing only; does not influence the outcome
		evalStart := time.Now()
		res, err := built.System.Evaluate(ch, core.EvalConfig{
			BlocksPerPeriod:        p.Blocks,
			ExcludeMigrationEnergy: p.ExcludeMigrationEnergy,
		})
		if err != nil {
			return fmt.Errorf("sim: config %s scheme %s blocks %d: %w",
				p.Config, p.Scheme.Name, p.Blocks, err)
		}
		//hotnoc:allow determinism wall-clock metric timing only; the outcome itself is already computed
		l.met.evaluateDone(time.Since(evalStart))
		l.deliver(idx, SweepOutcome{Point: p, Built: built, Result: res}, out, ready, prog)
	}
	if len(reactive) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	cfgs := make([]ReactiveConfig, len(reactive))
	for i, idx := range reactive {
		cfgs[i] = *pts[idx].Reactive
		// The point's Scheme is authoritative (it keyed the shared
		// characterization); a spec that carried only parameters gets
		// the step function filled in here.
		cfgs[i].Scheme = t.scheme
	}
	//hotnoc:allow determinism wall-clock metric timing only; does not influence the outcome
	evalStart := time.Now()
	res, err := built.System.EvaluateReactiveSet(ch, cfgs)
	if err != nil {
		if re := (*core.ReactiveRunError)(nil); errors.As(err, &re) {
			p := pts[reactive[re.Run]]
			return fmt.Errorf("sim: config %s scheme %s reactive trigger %g: %w",
				p.Config, p.Scheme.Name, p.Reactive.TriggerC, re.Err)
		}
		return fmt.Errorf("sim: config %s scheme %s reactive: %w", t.config, t.scheme.Name, err)
	}
	// The set's wall time is charged evenly to its points.
	//hotnoc:allow determinism wall-clock metric timing only; the outcomes themselves are already computed
	perPoint := time.Since(evalStart) / time.Duration(len(reactive))
	for i, idx := range reactive {
		l.met.evaluateDone(perPoint)
		l.deliver(idx, SweepOutcome{Point: pts[idx], Built: built, Reactive: &res[i]}, out, ready, prog)
	}
	return nil
}

// deliver publishes point idx's outcome: it lands in out, the point is
// marked ready, and its evaluate-done event is emitted.
func (l *Lab) deliver(idx int, o SweepOutcome, out []SweepOutcome, ready []chan struct{}, prog func(Event)) {
	out[idx] = o
	close(ready[idx])
	p := o.Point
	emit(prog, Event{Stage: StageEvaluateDone, Config: p.Config, Scale: l.scale,
		Scheme: p.Scheme.Name, Point: idx, Blocks: p.Blocks, Kind: string(p.Kind())})
}

// groupPoints partitions the grid into tasks, in an order fixed by the
// grid so scheduling is deterministic. Periodic cells of one
// (configuration, scheme) form a single task: their thermal evaluations
// are cheap. Reactive cells of one (configuration, scheme) are split into
// contiguous chunk tasks, as many as the group's share of the workers
// (workers × its cells / all reactive cells, rounded up, at most one per
// cell): each cell is a full transient integration — the dominant cost
// of a reactive sweep once the orbit is characterized — so a
// single-scheme trigger sweep must be able to spread across the pool,
// while a sweep over several schemes keeps each scheme's cells together,
// where runTask steps them as one lockstep set, up to four runs sharing
// each solve.
// Chunk tasks request the same characterization key; the cache's
// per-key singleflight still simulates the orbit at most once, and
// results do not depend on the chunking (evaluation on the shared System
// is a pure function of its inputs), so outcomes stay bitwise identical
// across worker counts.
func groupPoints(pts []SweepPoint, workers int) []task {
	type gkey struct {
		config, scheme string
		kind           PointKind
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
	reactiveCells := 0
	for _, g := range groups {
		if pts[g.cells[0]].Kind() == KindReactive {
			reactiveCells += len(g.cells)
		}
	}
	var tasks []task
	for _, g := range groups {
		if pts[g.cells[0]].Kind() == KindReactive {
			// The group's share of the pool, rounded up.
			n := min((workers*len(g.cells)+reactiveCells-1)/reactiveCells, len(g.cells))
			for c := 0; c < n; c++ {
				lo, hi := c*len(g.cells)/n, (c+1)*len(g.cells)/n
				tasks = append(tasks, task{config: g.config, scheme: g.scheme, cells: g.cells[lo:hi]})
			}
			continue
		}
		tasks = append(tasks, g)
	}
	// Largest tasks first: with more tasks than workers this packs the
	// pool better. Then deal them in rounds, each taking the largest
	// remaining task of every configuration that has one, so on a
	// configuration-major grid every configuration's build starts as
	// soon as a worker is free instead of the pool queueing behind one
	// build at a time. Neither affects result order.
	slices.SortStableFunc(tasks, func(a, b task) int { return len(b.cells) - len(a.cells) })
	round := 0 // where the current round starts
	for p := range tasks {
		i := p
		for i < len(tasks) && hasConfig(tasks[round:p], tasks[i].config) {
			i++
		}
		if i == len(tasks) {
			round, i = p, p // every remaining configuration was dealt: next round
		}
		// Move task i to p, keeping the remaining tasks in order.
		t := tasks[i]
		copy(tasks[p+1:i+1], tasks[p:i])
		tasks[p] = t
	}
	return tasks
}

// hasConfig reports whether a task of config is among tasks.
func hasConfig(tasks []task, config string) bool {
	for _, t := range tasks {
		if t.config == config {
			return true
		}
	}
	return false
}

// SweepGrid returns the cross product configs × schemes × blocks in
// configuration-major, scheme-then-period-minor order — the natural
// ordering of the paper's figures. A nil or empty blocks slice means the
// one-block base period.
func SweepGrid(configs []string, schemes []Scheme, blocks []int) []SweepPoint {
	if len(blocks) == 0 {
		blocks = []int{1}
	}
	pts := make([]SweepPoint, 0, len(configs)*len(schemes)*len(blocks))
	for _, c := range configs {
		for _, s := range schemes {
			for _, b := range blocks {
				pts = append(pts, SweepPoint{Config: c, Scheme: s, Blocks: b})
			}
		}
	}
	return pts
}

// ReactiveGrid returns one reactive point per threshold configuration on
// one chip configuration, in input order — the grid Lab.Reactive and
// remote clients sweep. Configurations selecting the same scheme share
// one NoC characterization when swept, exactly as the periods of a
// periodic period sweep do.
func ReactiveGrid(config string, cfgs []ReactiveConfig) []SweepPoint {
	pts := make([]SweepPoint, len(cfgs))
	for i, cfg := range cfgs {
		pts[i] = ReactivePoint(config, cfg)
	}
	return pts
}
