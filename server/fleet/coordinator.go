// Package fleet turns a set of cooperating hotnocd daemons into one
// horizontally scaled service. A Coordinator owns a registry of workers
// (daemons that registered with POST /v1/workers and keep a heartbeat
// lease alive), partitions every submitted sweep into (config,
// scheme)-aligned shards, dispatches the shards to workers over the
// ordinary client SDK, and re-merges the per-shard outcome streams into
// one point-ordered stream that is byte-identical to the same sweep on a
// single daemon.
//
// Three properties make the fleet safe to hide behind a plain -server
// URL:
//
//   - Byte parity. Workers stream outcomes in deterministic point order
//     and JSON round-trips float64 bit for bit, so reassembling shard
//     outcomes by global grid index reproduces exactly the stream one
//     daemon would have produced.
//   - Exactly-once artifacts. Shards are bundled per configuration and
//     every bundle lands on one worker, so each calibrated build —
//     annealing plus calibration, keyed (config, scale) — and each NoC
//     characterization — keyed (config, scheme, scale) — is computed by
//     exactly one worker. The assignment is remembered as a
//     coordinator-granted claim, so later sweeps (and concurrent jobs)
//     over the same keys return to the worker whose caches already hold
//     them: the whole fleet anneals each configuration once.
//   - Loss tolerance. A worker that misses its heartbeat lease, or whose
//     stream breaks at the transport level, is expired: its claims are
//     released, in-flight streams from it unwind, and each of its
//     unfinished shards is re-dispatched — trimmed to the points not yet
//     received, with late duplicates dropped by index — to a surviving
//     worker. Clients still see every point exactly once, in order.
//
// The Coordinator plugs into hotnoc/server as Config.Fleet: tenant
// identity, admission and weighted-fair scheduling stay coordinator-side
// concerns, while shard sub-jobs reach workers anonymously — the fleet's
// interior is tenant-invisible.
package fleet

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"maps"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hotnoc"
	"hotnoc/client"
	"hotnoc/server/wire"
)

// ErrNoWorkers rejects work submitted to a fleet with no live workers.
var ErrNoWorkers = errors.New("fleet has no live workers")

// Config tunes a Coordinator.
type Config struct {
	// Lease is how long a worker registration stays live without a
	// heartbeat (a re-POST of /v1/workers). Zero means 15s.
	Lease time.Duration
	// Secret, when non-empty, gates worker registration and
	// deregistration: those requests must present it as "Authorization:
	// Bearer <secret>". Keeps random clients from joining (or draining)
	// the fleet; tenant API keys are a separate, client-facing concern.
	Secret string
	// StatsTimeout bounds each worker's /v1/stats fetch during fleet
	// stats aggregation. Zero means 3s.
	StatsTimeout time.Duration
}

// Coordinator shards sweeps across registered workers; see the package
// comment. Create one with NewCoordinator and hand it to
// server.Config.Fleet.
type Coordinator struct {
	cfg Config

	// mu is held while the event hook runs and while scrape-adjacent
	// registration paths execute, so collectors and hooks must never
	// acquire it back (self-deadlock); lockorder enforces this.
	mu      sync.Mutex //hotnoc:scrapelocked
	workers map[string]*Worker
	// live mirrors len(workers) atomically so the metrics collector
	// can report the worker-count gauge without touching mu at scrape
	// time (the lockorder rule above).
	live   atomic.Int64
	byURL  map[string]*Worker
	nextID int
	// builds / chars are the coordinator-granted claims: which worker
	// owns each calibrated build and each NoC characterization. Claims
	// hold until the owner dies, keeping artifact keys sticky across
	// sweeps so the fleet computes each exactly once.
	builds map[buildKey]string
	chars  map[charKey]string

	// ledger accumulates worker counters monotonically across lease
	// expiry and re-registration; see statsLedger.
	ledger *statsLedger

	// onEvent observes fleet membership changes (worker joined / left)
	// for the server's diagnostics stream. Called with c.mu held — it
	// must be a leaf that never calls back into the coordinator.
	onEvent func(typ, workerID, url, reason string)

	// now and onExpire are test seams: the registry clock, and an
	// observer of worker expiry.
	now      func() time.Time
	onExpire func(id, reason string)
}

// SetEventHook installs an observer of fleet membership events: typ is
// wire.DiagWorkerJoined or wire.DiagWorkerLeft, reason is non-empty
// only on departures. The hook runs with coordinator state locked, so
// it must not call back into the Coordinator. Set it before serving.
func (c *Coordinator) SetEventHook(fn func(typ, workerID, url, reason string)) {
	c.onEvent = fn
}

// NewCoordinator returns an empty fleet; workers join via Register or
// the POST /v1/workers handler.
func NewCoordinator(cfg Config) *Coordinator {
	return &Coordinator{
		cfg:     cfg,
		workers: map[string]*Worker{},
		byURL:   map[string]*Worker{},
		builds:  map[buildKey]string{},
		chars:   map[charKey]string{},
		ledger:  newStatsLedger(),
		now:     time.Now,
	}
}

func (c *Coordinator) lease() time.Duration {
	if c.cfg.Lease > 0 {
		return c.cfg.Lease
	}
	return 15 * time.Second
}

func (c *Coordinator) statsTimeout() time.Duration {
	if c.cfg.StatsTimeout > 0 {
		return c.cfg.StatsTimeout
	}
	return 3 * time.Second
}

// Register adds a worker reachable at url (or refreshes its lease —
// registration doubles as the heartbeat) and returns its lease.
func (c *Coordinator) Register(url string, capacity int) wire.WorkerLease {
	c.mu.Lock()
	w := c.registerLocked(url, capacity)
	c.mu.Unlock()
	return wire.WorkerLease{ID: w.id, LeaseSec: c.lease().Seconds()}
}

// Deregister removes a worker gracefully (a drained worker saying
// goodbye). Unknown ids are a no-op.
func (c *Coordinator) Deregister(id string) {
	c.expireWorker(id, "deregistered")
}

// Sweep partitions pts into shards, dispatches them across the fleet and
// streams the merged outcomes in point order — the fleet-backed
// equivalent of Lab.SweepWithProgress, pluggable into the server's job
// machinery. Worker loss mid-shard re-dispatches the shard's unfinished
// points to a surviving worker; progress events are forwarded with
// point indices remapped to the submitted grid.
func (c *Coordinator) Sweep(parent context.Context, scale int, pts []hotnoc.SweepPoint, progress func(hotnoc.Event)) iter.Seq2[hotnoc.SweepOutcome, error] {
	return func(yield func(hotnoc.SweepOutcome, error) bool) {
		if len(pts) == 0 {
			return
		}
		if scale <= 0 {
			scale = 1
		}
		shards := Partition(pts)
		assigned := c.assign(shards, scale)
		if assigned == nil {
			yield(hotnoc.SweepOutcome{}, ErrNoWorkers)
			return
		}
		ctx, cancel := context.WithCancel(parent)
		defer cancel()

		col := newCollector(len(pts))
		type indexed struct {
			idx int
			out hotnoc.SweepOutcome
		}
		outc := make(chan indexed, 64)
		errc := make(chan error, len(shards))
		var pmu sync.Mutex
		emitProgress := func(ev hotnoc.Event) {
			if progress == nil {
				return
			}
			pmu.Lock()
			progress(ev)
			pmu.Unlock()
		}
		var wg sync.WaitGroup
		for _, sh := range shards {
			wg.Add(1)
			go func(sh Shard, hint string) {
				defer wg.Done()
				err := c.runShard(ctx, scale, sh, pts, hint, col, func(gi int, out hotnoc.SweepOutcome) {
					select {
					case outc <- indexed{idx: gi, out: out}:
					case <-ctx.Done():
					}
				}, emitProgress)
				if err != nil && ctx.Err() == nil {
					errc <- err
					cancel()
				}
			}(sh, assigned[sh.Key])
		}
		go func() {
			wg.Wait()
			close(outc)
		}()

		ord := newOrderer(len(pts))
		for io := range outc {
			for _, out := range ord.add(io.idx, io.out) {
				if !yield(out, nil) {
					// The consumer broke out; cancel and drain the shard
					// runners so no goroutine outlives the iteration.
					cancel()
					for range outc {
					}
					return
				}
			}
		}
		if ord.complete() {
			return
		}
		select {
		case err := <-errc:
			yield(hotnoc.SweepOutcome{}, err)
		default:
			if err := parent.Err(); err != nil {
				yield(hotnoc.SweepOutcome{}, err)
				return
			}
			yield(hotnoc.SweepOutcome{}, fmt.Errorf(
				"fleet: sweep ended after %d of %d outcomes", ord.emitted(), len(pts)))
		}
	}
}

// maxAttempts bounds how often one shard may be re-dispatched before the
// sweep fails: every live worker may be tried, with headroom for
// stragglers joining mid-sweep.
func (c *Coordinator) maxAttempts() int {
	return c.WorkerCount() + 2
}

// runShard drives one shard to completion, re-dispatching across worker
// loss. Each attempt streams only the points the collector has not yet
// seen, so a surviving worker picks up exactly where the lost one
// stopped.
func (c *Coordinator) runShard(ctx context.Context, scale int, sh Shard, pts []hotnoc.SweepPoint, hint string, col *collector, emit func(int, hotnoc.SweepOutcome), progress func(hotnoc.Event)) error {
	var last error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		rem := col.remaining(sh)
		if len(rem) == 0 {
			return nil
		}
		w := c.acquire(sh.Key, scale, hint)
		hint = "" // the planner's choice only binds the first attempt
		if w == nil {
			if last != nil {
				return fmt.Errorf("fleet: shard %s/%s: %w (last worker error: %v)",
					sh.Key.Config, sh.Key.Scheme, ErrNoWorkers, last)
			}
			return ErrNoWorkers
		}
		err := c.streamShard(ctx, w, scale, rem, pts, col, emit, progress)
		c.release(w)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		last = err
		if attempt >= c.maxAttempts() {
			return fmt.Errorf("fleet: shard %s/%s failed after %d attempts: %w",
				sh.Key.Config, sh.Key.Scheme, attempt+1, err)
		}
		var re *client.RetryableError
		switch {
		case errors.As(err, &re):
			// The worker is alive but saturated (429) or draining (503):
			// back off and re-acquire — claims will route elsewhere only
			// if the worker dies meanwhile.
			delay := re.RetryAfter
			if delay <= 0 {
				delay = min(100*time.Millisecond<<attempt, 5*time.Second)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(delay):
			}
		case transportError(err):
			// The worker is gone (connection refused/reset, stream cut
			// mid-flight, lease expired): expire it so its claims release
			// and the next acquire lands on a survivor.
			c.expireWorker(w.id, fmt.Sprintf("dispatch failed: %v", err))
		default:
			// A real evaluation or validation failure would recur on any
			// worker; fail the sweep.
			return err
		}
	}
}

// streamShard dispatches the shard's remaining points to w as one
// sub-sweep and feeds outcomes (tagged with their global grid index) to
// emit. The stream aborts as soon as the worker's lease expires, not
// only when TCP notices.
func (c *Coordinator) streamShard(ctx context.Context, w *Worker, scale int, rem []int, pts []hotnoc.SweepPoint, col *collector, emit func(int, hotnoc.SweepOutcome), progress func(hotnoc.Event)) error {
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-w.gone:
			cancel()
		case <-wctx.Done():
		}
	}()
	sub := make([]hotnoc.SweepPoint, len(rem))
	for i, gi := range rem {
		sub[i] = pts[gi]
	}
	opts := []client.Option{client.WithScale(scale)}
	if progress != nil {
		opts = append(opts, client.WithProgress(func(ev hotnoc.Event) {
			// Worker events carry shard-local point indices; remap them
			// to the submitted grid so clients can't tell a fleet ran.
			if ev.Point >= 0 && ev.Point < len(rem) {
				ev.Point = rem[ev.Point]
			}
			progress(ev)
		}))
	}
	i := 0
	for out, err := range client.New(w.url, opts...).Sweep(wctx, sub) {
		if err != nil {
			if ctx.Err() == nil && wctx.Err() != nil {
				// The worker's lease expired mid-stream; surface it as a
				// transport-class loss so the shard re-dispatches.
				return fmt.Errorf("fleet: worker %s (%s) lost mid-shard: %w", w.id, w.url, client.ErrInterrupted)
			}
			return err
		}
		if i >= len(rem) {
			return fmt.Errorf("fleet: worker %s streamed more outcomes than dispatched", w.id)
		}
		gi := rem[i]
		i++
		if col.add(gi) {
			emit(gi, out)
		}
	}
	if i != len(rem) {
		return fmt.Errorf("fleet: worker %s streamed %d of %d shard outcomes: %w",
			w.id, i, len(rem), client.ErrInterrupted)
	}
	return nil
}

// transportError reports whether err smells like the worker (or the
// network to it) died — the class of failure that warrants expiry and
// re-dispatch rather than failing the sweep.
func transportError(err error) bool {
	var ue *url.Error
	if errors.As(err, &ue) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, client.ErrInterrupted) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// Placement proxies a placement-report request to the worker owning the
// configuration's build claim (falling back to the least-loaded worker),
// so GET /v1/builds/{config} works through a coordinator too.
func (c *Coordinator) Placement(ctx context.Context, config string, scale int) (*hotnoc.PlacementReport, error) {
	w := c.acquire(ShardKey{Config: config}, scale, "")
	if w == nil {
		return nil, ErrNoWorkers
	}
	defer c.release(w)
	return client.New(w.url, client.WithScale(scale)).Placement(ctx, config)
}

// FleetStats aggregates the workers' lab stats per scale. The counter
// fields (decodes, characterization and build cache hits/misses) come
// from the coordinator's monotonic ledger, so they never regress when a
// worker restarts, re-registers under a fresh id, or is temporarily
// unreachable — the departed incarnation's work stays counted. The
// gauge fields (pool size, busy workers) describe the present and are
// summed over the workers that answered this fetch; workers that miss
// the stats timeout contribute nothing to gauges but stay listed in
// Workers(). Worker tenant rows are not aggregated: workers only ever
// see the coordinator's shard sub-jobs, as their anonymous tenant.
//
//hotnoc:deterministic
func (c *Coordinator) FleetStats(ctx context.Context) []hotnoc.LabStats {
	c.mu.Lock()
	live := c.liveLocked()
	urls := make([]string, len(live))
	for i, w := range live {
		urls[i] = w.url
	}
	c.mu.Unlock()

	ctx, cancel := context.WithTimeout(ctx, c.statsTimeout())
	defer cancel()
	results := make([]wire.Stats, len(urls))
	oks := make([]bool, len(urls))
	var wg sync.WaitGroup
	for i, u := range urls {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			st, err := client.New(u).Stats(ctx)
			if err == nil {
				results[i], oks[i] = st, true
			}
		}(i, u)
	}
	wg.Wait()

	// Fold this round's successful fetches into the monotonic ledger,
	// then assemble: gauges from the round, counters from the ledger.
	byScale := map[int]*hotnoc.LabStats{}
	for i := range results {
		if !oks[i] {
			continue
		}
		c.ledger.observe(urls[i], results[i].Labs)
		for _, ls := range results[i].Labs {
			agg, ok := byScale[ls.Scale]
			if !ok {
				agg = &hotnoc.LabStats{Scale: ls.Scale}
				byScale[ls.Scale] = agg
			}
			agg.Workers += ls.Workers
			agg.BusyWorkers += ls.BusyWorkers
		}
	}
	totals := c.ledger.labTotals()
	for _, scale := range slices.Sorted(maps.Keys(totals)) {
		ct := totals[scale]
		agg, ok := byScale[scale]
		if !ok {
			agg = &hotnoc.LabStats{Scale: scale}
			byScale[scale] = agg
		}
		agg.Decodes = ct.decodes
		agg.CacheHits = ct.cacheHits
		agg.CacheMisses = ct.cacheMisses
		agg.BuildHits = ct.buildHits
		agg.BuildMisses = ct.buildMisses
	}
	labs := make([]hotnoc.LabStats, 0, len(byScale))
	for _, scale := range slices.Sorted(maps.Keys(byScale)) {
		labs = append(labs, *byScale[scale])
	}
	return labs
}

// authorized checks the fleet secret on worker registration requests.
func (c *Coordinator) authorized(r *http.Request) bool {
	if c.cfg.Secret == "" {
		return true
	}
	const scheme = "bearer "
	auth := r.Header.Get("Authorization")
	if len(auth) <= len(scheme) || !strings.EqualFold(auth[:len(scheme)], scheme) {
		return false
	}
	presented := strings.TrimSpace(auth[len(scheme):])
	return subtle.ConstantTimeCompare([]byte(presented), []byte(c.cfg.Secret)) == 1
}

// HandleRegister serves POST /v1/workers: a worker joining the fleet, or
// heartbeating its lease (the call is idempotent by URL).
func (c *Coordinator) HandleRegister(w http.ResponseWriter, r *http.Request) {
	if !c.authorized(r) {
		w.Header().Set("WWW-Authenticate", `Bearer realm="hotnocd-fleet"`)
		fleetError(w, http.StatusUnauthorized, "worker registration requires the fleet secret")
		return
	}
	var reg wire.WorkerRegistration
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&reg); err != nil {
		fleetError(w, http.StatusBadRequest, "bad worker registration: %v", err)
		return
	}
	u, err := url.Parse(reg.URL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		fleetError(w, http.StatusBadRequest, "worker url %q is not an absolute URL", reg.URL)
		return
	}
	lease := c.Register(strings.TrimRight(reg.URL, "/"), reg.Capacity)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	_ = json.NewEncoder(w).Encode(lease)
}

// HandleDeregister serves DELETE /v1/workers/{id}: a worker leaving the
// fleet gracefully.
func (c *Coordinator) HandleDeregister(w http.ResponseWriter, r *http.Request) {
	if !c.authorized(r) {
		w.Header().Set("WWW-Authenticate", `Bearer realm="hotnocd-fleet"`)
		fleetError(w, http.StatusUnauthorized, "worker deregistration requires the fleet secret")
		return
	}
	c.Deregister(r.PathValue("id"))
	w.WriteHeader(http.StatusNoContent)
}

// HandleWorkers serves GET /v1/workers: the live fleet membership.
func (c *Coordinator) HandleWorkers(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(wire.WorkerList{Workers: c.Workers()})
}

func fleetError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(wire.ErrorMsg{Error: fmt.Sprintf(format, args...)})
}
