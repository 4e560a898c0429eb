package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hotnoc"
	"hotnoc/client"
	"hotnoc/internal/geom"
	"hotnoc/internal/place"
	"hotnoc/obs"
	"hotnoc/server"
)

const (
	// workers sizes every Lab's and the daemon's worker pool, and callers
	// is the number of closed-loop clients of the warm workloads: one
	// process drives no more concurrent work than the two cores the
	// benchmark is sized for.
	workers = 2
	callers = 2
	// minSetups is how often fig1-cold and reactive-warm repeat their
	// few-second set-up, so setup_s is a median. fig1-serve-warm's set-up
	// is a whole cold Figure 1 and runs once.
	minSetups = 3
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(ctx context.Context, r *run) error
}

var workloads = []workload{
	// The cold NoC/appmap/characterize path of Figure 1, in process: where
	// ~88% of a cold reproduction's CPU goes. No HTTP, little thermal work.
	{"fig1-cold", fig1Cold},
	// The daemon's warm path: server, wire, client and the
	// characterization-cache hit, plus System.Evaluate's thermal cycle,
	// with zero NoC cycles. Closed loop: every CLI/SDK caller blocks on
	// its stream.
	{"fig1-serve-warm", fig1ServeWarm},
	// Transient thermal stepping through the reactive policy and the
	// runner's reactive chunk tasks. No NoC, no HTTP.
	{"reactive-warm", reactiveWarm},
}

var fig1Configs = []string{"A", "B", "C", "D", "E"}

// reactiveTriggers are the thresholds reactive-warm jobs draw from; its
// reference set is every (scheme, trigger) pair on configuration A.
var reactiveTriggers = []float64{82, 83, 84, 85}

// reactiveSchemes gives reactive-warm caller i its scheme.
func reactiveSchemes() []hotnoc.Scheme { return []hotnoc.Scheme{hotnoc.XYShift(), hotnoc.Rot()} }

// newRand returns the generator for one input stream of a seed. Every
// generated input — point orders, trigger draws — comes from such a
// stream, so a seed reproduces a run's inputs exactly.
func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// shuffled returns a copy of pts in the order rng draws.
func shuffled(pts []hotnoc.SweepPoint, rng *rand.Rand) []hotnoc.SweepPoint {
	out := append([]hotnoc.SweepPoint(nil), pts...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// run is the state of one workload run: its options, the set-up and job
// measurements, and what the correctness checks found.
type run struct {
	opts   options
	golden *golden
	tr     *tracer       // nil unless traced
	reg    *obs.Registry // pipeline instruments of traced runs
	phase  atomic.Int64  // span that event-derived spans attach to

	setups  []time.Duration
	anneals []float64 // per set-up

	// Timed phase: latency of every completed job, points completed, jobs
	// attempted and failed, and the process counters spent.
	lat               []time.Duration
	points            int
	attempted, failed int
	timed             time.Duration
	spent             usage
	stageTime         stageSums

	stats        hotnoc.LabStats // of the Lab that served the timed phase
	builts       []*hotnoc.Built // for the layer probes
	probeSchemes []hotnoc.Scheme

	extra map[string]metric // per-layer metrics only this workload has
	notes []string
	wrong []string // failed correctness checks
}

func (r *run) parent() int { return int(r.phase.Load()) }

// newLab returns a fresh Lab; traced runs also record its pipeline
// metrics and turn its progress events into spans.
func (r *run) newLab() *hotnoc.Lab {
	opts := []hotnoc.LabOption{hotnoc.WithScale(r.opts.scale), hotnoc.WithWorkers(workers)}
	if r.tr != nil {
		opts = append(opts, hotnoc.WithMetrics(r.reg), hotnoc.WithProgress(r.tr.onEvent(r.parent)))
	}
	return hotnoc.NewLab(opts...)
}

// setup times one set-up and the annealing runs it caused.
func (r *run) setup(do func() error) error {
	id := r.tr.begin(0, "setup")
	r.phase.Store(int64(id))
	anneals := place.AnnealCount()
	start := time.Now()
	err := do()
	r.setups = append(r.setups, time.Since(start))
	r.anneals = append(r.anneals, float64(place.AnnealCount()-anneals))
	r.tr.end(id, nil)
	return err
}

// stageSums are the pipeline's cumulative characterize and evaluate
// stage seconds and evaluated points, read from a traced run's registry.
type stageSums struct {
	char, eval float64
	evals      uint64
}

func (r *run) stages() stageSums {
	if r.reg == nil {
		return stageSums{}
	}
	stage := func(name string) obs.HistogramSnapshot {
		return r.reg.Histogram("hotnoc_stage_seconds", "",
			obs.Labels{"scale": strconv.Itoa(r.opts.scale), "stage": name}, nil).Snapshot()
	}
	c, e := stage("characterize"), stage("evaluate")
	return stageSums{char: c.Sum, eval: e.Sum, evals: e.Count}
}

// measure runs part of the timed phase and adds its wall time, CPU time,
// allocations and pipeline stage time to the run's totals.
func (r *run) measure(do func()) time.Duration {
	st0, u0 := r.stages(), snapshot()
	do()
	u1, st1 := snapshot(), r.stages()
	d := u1.at.Sub(u0.at)
	r.timed += d
	r.spent.cpu += u1.cpu - u0.cpu
	r.spent.alloc += u1.alloc - u0.alloc
	r.spent.mallocs += u1.mallocs - u0.mallocs
	r.stageTime.char += st1.char - st0.char
	r.stageTime.eval += st1.eval - st0.eval
	r.stageTime.evals += st1.evals - st0.evals
	return d
}

// record books one job of the timed phase.
func (r *run) record(lat time.Duration, points int, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.wrong) < 5 {
			r.wrong = append(r.wrong, err.Error())
		}
		return
	}
	r.lat = append(r.lat, lat)
	r.points += points
}

// loop is the warm workloads' timed phase: callers closed-loop clients,
// each submitting a job, waiting for its result and submitting the next,
// until its next job would likely end after the window closes (judged by
// its previous job). Jobs run under a job span the client's requests can
// find in their context.
func (r *run) loop(ctx context.Context, job func(ctx context.Context, caller int) (points int, err error)) {
	window := time.Duration(r.opts.seconds) * time.Second
	id := r.tr.begin(0, "timed")
	r.phase.Store(int64(id))
	var mu sync.Mutex
	r.measure(func() {
		start := time.Now()
		var wg sync.WaitGroup
		for c := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var last time.Duration
				for n := 0; ctx.Err() == nil && (n == 0 || time.Since(start)+last <= window); n++ {
					jid := r.tr.begin(id, "job")
					t0 := time.Now()
					points, err := job(context.WithValue(ctx, spanKey{}, jid), c)
					last = time.Since(t0)
					r.tr.end(jid, map[string]int64{"points": int64(points)})
					mu.Lock()
					r.record(last, points, err)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	})
	r.tr.end(id, nil)
}

// callerRands gives each closed-loop caller its own input stream.
func callerRands(seed int64) []*rand.Rand {
	rngs := make([]*rand.Rand, callers)
	for i := range rngs {
		rngs[i] = newRand(seed, uint64(i+1))
	}
	return rngs
}

// checkWarm records the Lab counters after the timed phase and fails the
// run if a warm loop did any NoC work.
func (r *run) checkWarm(before, after hotnoc.LabStats) {
	r.stats = after
	if after.Decodes != before.Decodes || after.CacheMisses != before.CacheMisses {
		r.wrong = append(r.wrong, fmt.Sprintf("warm loop simulated on the NoC: decodes %d -> %d, misses %d -> %d",
			before.Decodes, after.Decodes, before.CacheMisses, after.CacheMisses))
	}
}

// fig1Decodes is the exact decode count of a cold Figure 1: every
// (configuration, scheme) orbit decodes one block per leg plus one at
// the static placement.
func fig1Decodes() uint64 {
	var n uint64
	for _, c := range fig1Configs {
		spec, _ := hotnoc.ConfigByName(c) // fig1Configs are the paper's names
		g := geom.NewGrid(spec.GridN, spec.GridN)
		for _, s := range hotnoc.Schemes() {
			n += uint64(s.OrbitLen(g) + 1)
		}
	}
	return n
}

// fig1Cold: a fresh Lab builds configurations A-E (anneal + calibrate),
// then one cold 25-point Figure 1 sweep runs in a seeded point order on
// two workers. Sweeps repeat, each on a freshly set-up Lab, while the
// next one is likely to end inside the window.
func fig1Cold(ctx context.Context, r *run) error {
	var lab *hotnoc.Lab
	setup := func() error {
		lab = r.newLab()
		for _, c := range fig1Configs {
			if _, err := lab.Build(c); err != nil {
				return err
			}
		}
		return nil
	}
	for range minSetups {
		if err := r.setup(setup); err != nil {
			return err
		}
	}
	grid := hotnoc.SweepGrid(fig1Configs, hotnoc.Schemes(), nil)
	window := time.Duration(r.opts.seconds) * time.Second
	id := r.tr.begin(0, "timed")
	defer r.tr.end(id, nil)
	var last time.Duration
	for n := 0; n == 0 || r.timed+last <= window; n++ {
		if n > 0 {
			if err := r.setup(setup); err != nil {
				return err
			}
		}
		pts := shuffled(grid, newRand(r.opts.seed, uint64(n)))
		jid := r.tr.begin(id, "job")
		r.phase.Store(int64(jid))
		var outs []hotnoc.SweepOutcome
		var err error
		last = r.measure(func() { outs, err = lab.SweepAll(ctx, pts) })
		r.tr.end(jid, map[string]int64{"points": int64(len(pts))})
		if err == nil {
			err = r.checkCold(lab, outs)
		}
		r.record(last, len(pts), err)
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	r.stats = lab.Stats()
	r.probeSchemes = hotnoc.Schemes()
	for _, c := range fig1Configs {
		b, err := lab.Build(c)
		if err != nil {
			return err
		}
		r.builts = append(r.builts, b)
	}
	return nil
}

// checkCold verifies one cold sweep: the Figure 1 golden and the exact
// NoC work a cold sweep must do.
func (r *run) checkCold(lab *hotnoc.Lab, outs []hotnoc.SweepOutcome) error {
	st := lab.Stats()
	if want := fig1Decodes(); st.Decodes != want || st.CacheMisses != uint64(len(outs)) || st.CacheHits != 0 {
		return fmt.Errorf("cold sweep counts: %d decodes, %d misses, %d hits (want %d, %d, 0)",
			st.Decodes, st.CacheMisses, st.CacheHits, want, len(outs))
	}
	note, err := r.golden.check("figure1", r.opts.scale, periodicEntries(outs))
	r.note(note)
	return err
}

// note records a remark for the report, once.
func (r *run) note(s string) {
	if s != "" && !slices.Contains(r.notes, s) {
		r.notes = append(r.notes, s)
	}
}

func pointKey(p hotnoc.SweepPoint) string { return p.Config + "/" + p.Scheme.Name }

// fig1ServeWarm: an in-process hotnocd behind httptest. Set-up pushes one
// cold Figure 1 through the client SDK; then callers closed-loop clients
// each submit the 25 Figure 1 points in a seeded order and wait for the
// last outcome.
func fig1ServeWarm(ctx context.Context, r *run) error {
	srv := server.New(server.Config{Workers: workers, Metrics: r.reg})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx) // every job has finished; nothing to drain
	}()
	scale := client.WithScale(r.opts.scale)
	grid := hotnoc.SweepGrid(fig1Configs, hotnoc.Schemes(), nil)

	ref := map[string]hotnoc.RunResult{}
	err := r.setup(func() error {
		opts := []client.Option{scale}
		if r.tr != nil {
			opts = append(opts, client.WithProgress(r.tr.onEvent(r.parent)))
		}
		outs, err := client.New(ts.URL, opts...).SweepAll(ctx, shuffled(grid, newRand(r.opts.seed, 0)))
		if err != nil {
			return err
		}
		note, err := r.golden.check("figure1", r.opts.scale, periodicEntries(outs))
		if err != nil {
			return err
		}
		r.note(note)
		for _, o := range outs {
			ref[pointKey(o.Point)] = o.Result
		}
		return nil
	})
	if err != nil {
		return err
	}
	before, err := daemonStats(ctx, ts.URL, r.opts.scale)
	if err != nil {
		return err
	}

	hc := &http.Client{}
	var wire *wireCounter
	if r.tr != nil {
		wire = &wireCounter{base: http.DefaultTransport, tr: r.tr}
		hc.Transport = wire
	}
	c := client.New(ts.URL, scale, client.WithHTTPClient(hc))
	rngs := callerRands(r.opts.seed)
	var firstMu sync.Mutex
	var firsts []time.Duration
	queue0 := r.queueWait()
	r.loop(ctx, func(ctx context.Context, caller int) (int, error) {
		pts := shuffled(grid, rngs[caller])
		start := time.Now()
		n := 0
		for o, err := range c.Sweep(ctx, pts) {
			if err != nil {
				return 0, err
			}
			if n == 0 {
				firstMu.Lock()
				firsts = append(firsts, time.Since(start))
				firstMu.Unlock()
			}
			if want, ok := ref[pointKey(o.Point)]; !ok || !reflect.DeepEqual(o.Result, want) {
				return 0, fmt.Errorf("outcome %s differs from the reference", pointKey(o.Point))
			}
			n++
		}
		if n != len(pts) {
			return 0, fmt.Errorf("job streamed %d of %d outcomes", n, len(pts))
		}
		return n, nil
	})
	queue1 := r.queueWait()

	after, err := daemonStats(ctx, ts.URL, r.opts.scale)
	if err != nil {
		return err
	}
	r.checkWarm(before, after)
	if r.tr == nil {
		return nil
	}
	jobs := float64(max(r.attempted, 1))
	r.extra = map[string]metric{
		"client.submit_ms_p50":        {median(durationsMS(wire.submit)), "ms"},
		"client.first_outcome_ms_p50": {median(durationsMS(firsts)), "ms"},
		"client.stream_ms_p50":        {median(durationsMS(wire.stream)), "ms"},
		"server.queue_wait_ms":        {ratio((queue1.Sum-queue0.Sum)*1000, float64(queue1.Count-queue0.Count)), "ms"},
		"wire.kb_per_job":             {float64(wire.bytes) / 1024 / jobs, "KiB"},
	}
	// The daemon's builds are its own; the probes need local ones.
	lab := hotnoc.NewLab(hotnoc.WithScale(r.opts.scale), hotnoc.WithWorkers(workers))
	for _, cfg := range fig1Configs {
		b, err := lab.Build(cfg)
		if err != nil {
			return err
		}
		r.builts = append(r.builts, b)
	}
	r.probeSchemes = hotnoc.Schemes()
	return nil
}

// queueWait reads the daemon's queue-wait histogram of a traced run.
func (r *run) queueWait() obs.HistogramSnapshot {
	if r.reg == nil {
		return obs.HistogramSnapshot{}
	}
	return r.reg.Histogram("hotnocd_queue_wait_seconds", "", nil, nil).Snapshot()
}

// daemonStats returns the daemon's counters for the Lab at scale.
func daemonStats(ctx context.Context, url string, scale int) (hotnoc.LabStats, error) {
	st, err := client.New(url).Stats(ctx)
	if err != nil {
		return hotnoc.LabStats{}, err
	}
	for _, l := range st.Labs {
		if l.Scale == scale {
			return l, nil
		}
	}
	return hotnoc.LabStats{}, fmt.Errorf("daemon has no Lab at scale %d", scale)
}

// reactiveWarm: a Lab with configuration A's X-Y Shift and Rot orbits
// characterized in set-up, then callers closed-loop clients each running
// one Lab.Reactive point per job — caller 0 X-Y Shift, caller 1 Rot —
// with the trigger drawn from reactiveTriggers by the seed.
func reactiveWarm(ctx context.Context, r *run) error {
	schemes := reactiveSchemes()
	var cfgs []hotnoc.ReactiveConfig
	for _, s := range schemes {
		for _, t := range reactiveTriggers {
			cfgs = append(cfgs, hotnoc.ReactiveConfig{Scheme: s, TriggerC: t})
		}
	}
	type key struct {
		scheme  string
		trigger float64
	}
	var lab *hotnoc.Lab
	ref := map[key]hotnoc.ReactiveResult{}
	for range minSetups {
		err := r.setup(func() error {
			lab = r.newLab()
			if _, err := lab.Build("A"); err != nil {
				return err
			}
			res, err := lab.Reactive(ctx, "A", cfgs)
			if err != nil {
				return err
			}
			note, err := r.golden.check("reactive", r.opts.scale, reactiveEntries("A", cfgs, res))
			if err != nil {
				return err
			}
			r.note(note)
			for i, c := range cfgs {
				ref[key{c.Scheme.Name, c.TriggerC}] = res[i]
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	before := lab.Stats()
	rngs := callerRands(r.opts.seed)
	r.loop(ctx, func(ctx context.Context, caller int) (int, error) {
		cfg := hotnoc.ReactiveConfig{
			Scheme:   schemes[caller],
			TriggerC: reactiveTriggers[rngs[caller].IntN(len(reactiveTriggers))],
		}
		res, err := lab.Reactive(ctx, "A", []hotnoc.ReactiveConfig{cfg})
		if err != nil {
			return 0, err
		}
		if !reflect.DeepEqual(res[0], ref[key{cfg.Scheme.Name, cfg.TriggerC}]) {
			return 0, fmt.Errorf("reactive %s at %g °C differs from the reference", cfg.Scheme.Name, cfg.TriggerC)
		}
		return 1, nil
	})
	r.checkWarm(before, lab.Stats())
	b, err := lab.Build("A")
	if err != nil {
		return err
	}
	r.builts, r.probeSchemes = []*hotnoc.Built{b}, schemes
	return nil
}
