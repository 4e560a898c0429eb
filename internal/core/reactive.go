package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"hotnoc/internal/thermal"
)

// ReactiveConfig configures threshold-triggered migration, the natural
// extension of the paper's fixed-period policy: on-die thermal sensors are
// sampled at every block boundary and the plane migrates only when the
// hottest sensor exceeds TriggerC. Between triggers the chip runs at full
// throughput, so a well-chosen threshold buys back most of the periodic
// policy's penalty while still capping the peak.
type ReactiveConfig struct {
	// Scheme supplies the transform applied at each triggered migration.
	Scheme Scheme
	// TriggerC is the sensor threshold in °C.
	TriggerC float64
	// SimBlocks is the simulation horizon in decoded blocks (default
	// 2048). The horizon must span several die thermal time constants
	// (~10 ms) for the controller to reach its operating regime.
	SimBlocks int
	// WarmupBlocks excludes the initial heat-up/settling transient from
	// the reported statistics (default SimBlocks/2); the full sensor
	// timeline is still returned in BlockPeaks.
	WarmupBlocks int
	// SensorQuantC is the sensor resolution; readings are floored to this
	// LSB as a real thermal diode's output would be (default 0.25 °C).
	SensorQuantC float64
	// Dt is the thermal integrator step (default 5 µs).
	Dt float64
	// PeaksEvery downsamples the BlockPeaks timeline: the sensor reading
	// is recorded at every PeaksEvery-th block boundary (blocks 0, k, 2k,
	// ...). 0 or 1 records every boundary (the default); a negative value
	// omits the timeline entirely. High-horizon remote sweeps use it to
	// stop shipping one float per block over the wire. Only the reported
	// timeline thins — the trigger decision still samples every boundary,
	// so the policy outcome is unchanged.
	PeaksEvery int
}

// Normalized returns the config with defaults applied and the warmup
// clamped — the exact values EvaluateReactive runs with. Reporting
// layers use it so displayed horizons and warmups match what actually
// ran instead of re-deriving the defaulting rules.
func (c ReactiveConfig) Normalized() ReactiveConfig {
	c.setDefaults()
	return c
}

func (c *ReactiveConfig) setDefaults() {
	if c.SimBlocks <= 0 {
		c.SimBlocks = 2048
	}
	if c.WarmupBlocks <= 0 {
		c.WarmupBlocks = c.SimBlocks / 2
	}
	if c.WarmupBlocks >= c.SimBlocks {
		c.WarmupBlocks = c.SimBlocks - 1
	}
	if c.SensorQuantC <= 0 {
		c.SensorQuantC = 0.25
	}
	if c.Dt <= 0 {
		c.Dt = 5e-6
	}
	if c.PeaksEvery == 0 {
		c.PeaksEvery = 1
	}
}

// ReactiveResult summarises a reactive run. Scalar statistics cover the
// post-warmup window, i.e. the controller's operating regime rather than
// the initial heat-up transient.
type ReactiveResult struct {
	// PeakC is the hottest die temperature after warmup.
	PeakC float64
	// MeanC is the time-averaged die temperature after warmup.
	MeanC float64
	// Migrations counts triggered reconfigurations after warmup.
	Migrations int
	// ThroughputPenalty is post-warmup migration downtime over total time.
	ThroughputPenalty float64
	// BlockPeaks records the sensor peak at block boundaries of the whole
	// horizon (including warmup), a timeline of the control behaviour.
	// By default every boundary is recorded; ReactiveConfig.PeaksEvery
	// downsamples or omits the timeline.
	BlockPeaks []float64
}

// legMeasurement is one orbit position's power-map view of a
// characterization leg, the unit the reactive controller schedules.
type legMeasurement struct {
	decodeCycles int64
	decodePower  []float64
	migCycles    int64
	migPower     []float64
}

// RunReactive evaluates the threshold policy. It is Characterize followed
// by EvaluateReactive: reactive parameter sweeps (trigger thresholds,
// sensor quantisation, horizons) should call the stages directly and
// reuse one characterization, exactly as periodic period/ablation sweeps
// do.
func (s *System) RunReactive(cfg ReactiveConfig) (ReactiveResult, error) {
	if err := s.Validate(); err != nil {
		return ReactiveResult{}, err
	}
	if cfg.Scheme.StepFn == nil {
		return ReactiveResult{}, fmt.Errorf("core: no migration scheme configured")
	}
	ch, err := s.Characterize(cfg.Scheme)
	if err != nil {
		return ReactiveResult{}, err
	}
	return s.EvaluateReactive(ch, cfg)
}

// EvaluateReactive runs the threshold policy against an existing
// characterization: the thermal state is integrated transiently from the
// static placement's warm steady state, and at every block boundary the
// quantized sensor peak decides whether the next orbit step executes. No
// NoC simulation happens here — the orbit's per-leg activity comes from
// ch, so many reactive evaluations (different triggers, quantisations,
// horizons) amortise one Characterize. Results are bitwise identical to
// the fused RunReactive. It is the one-run case of EvaluateReactiveSet.
func (s *System) EvaluateReactive(ch *Characterization, cfg ReactiveConfig) (ReactiveResult, error) {
	var res [1]ReactiveResult
	if err := s.evaluateReactive(ch, []ReactiveConfig{cfg}, res[:]); err != nil {
		// A lone run needs no index.
		if re := (*ReactiveRunError)(nil); errors.As(err, &re) {
			err = re.Err
		}
		return ReactiveResult{}, err
	}
	return res[0], nil
}

// EvaluateReactiveSet evaluates every configuration of cfgs against ch
// and returns the results in input order, each bitwise identical to
// EvaluateReactive of that configuration alone. A trigger sweep is k
// independent runs on one characterization, so they share the work that
// does not depend on the configuration: one warm start serves the set,
// and runs with the same Dt advance in lockstep on the thermal lane
// driver (thermal.Evaluator.StepLanes), up to four taking each
// backward-Euler step through one banded solve. Every run keeps its own
// cursor (leg, steps left in its decode or migration window, recording
// flag, statistics, timeline), so runs whose triggers fire at different
// boundaries still share every solve, and a run that finishes hands its
// lane to the next waiting one. A configuration that fails validation
// (including a step that splits a window into more steps than an int
// holds) fails the set before any work starts; a failure that belongs to
// one configuration is a *ReactiveRunError naming it.
func (s *System) EvaluateReactiveSet(ch *Characterization, cfgs []ReactiveConfig) ([]ReactiveResult, error) {
	out := make([]ReactiveResult, len(cfgs))
	if err := s.evaluateReactive(ch, cfgs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReactiveRunError is the failure of one configuration of a reactive
// set; Run is its index in the set.
type ReactiveRunError struct {
	Run int
	Err error
}

func (e *ReactiveRunError) Error() string { return fmt.Sprintf("reactive run %d: %v", e.Run, e.Err) }

func (e *ReactiveRunError) Unwrap() error { return e.Err }

// CheckFinite rejects a NaN or infinite trigger, sensor resolution or
// step. Such a value is no setting: a NaN trigger never fires, a NaN
// resolution turns the timeline into NaNs that JSON cannot carry, and a
// NaN step equals no other step.
func (c ReactiveConfig) CheckFinite() error {
	for _, v := range [...]struct {
		name string
		x    float64
	}{{"trigger", c.TriggerC}, {"sensor resolution", c.SensorQuantC}, {"step", c.Dt}} {
		if math.IsNaN(v.x) || math.IsInf(v.x, 0) {
			return fmt.Errorf("non-finite reactive %s %g", v.name, v.x)
		}
	}
	return nil
}

// check rejects a configuration EvaluateReactive cannot run against ch.
func (c *ReactiveConfig) check(ch *Characterization) error {
	if c.Scheme.StepFn == nil {
		return fmt.Errorf("core: no migration scheme configured")
	}
	if c.Scheme.Name != ch.SchemeName {
		return fmt.Errorf("core: reactive config selects scheme %q but characterization is for %q",
			c.Scheme.Name, ch.SchemeName)
	}
	if err := c.CheckFinite(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// reactiveRun is the cursor of the run on one lane of a reactive set. It
// ignores thermal.Steps' error: checkWindows checked every window.
type reactiveRun struct {
	cfg  ReactiveConfig // defaults applied
	res  *ReactiveResult
	base []float64 // power map of the current window

	blk       int  // current block
	leg       int  // orbit position
	migrating bool // in the migration window after blk's decode
	recording bool // blk is past the warmup
	left      int  // integration steps left in the current window

	meanAcc                 float64
	meanN                   int
	decodeCycles, migCycles int64
}

// evaluateReactive evaluates cfgs into out (same length); see
// EvaluateReactiveSet.
func (s *System) evaluateReactive(ch *Characterization, cfgs []ReactiveConfig, out []ReactiveResult) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if ch == nil || len(ch.Legs) == 0 {
		return fmt.Errorf("core: empty characterization")
	}
	for i, cfg := range cfgs {
		if err := cfg.check(ch); err != nil {
			return &ReactiveRunError{Run: i, Err: err}
		}
		if err := s.checkWindows(ch, cfg.Normalized().Dt); err != nil {
			return &ReactiveRunError{Run: i, Err: err}
		}
	}
	if len(cfgs) == 0 {
		return nil
	}
	legs := s.reactiveLegs(ch)

	ev, err := s.takeEvaluator()
	if err != nil {
		return err
	}
	defer s.putEvaluator(ev)

	// Warm-start the thermal state from the static placement's
	// leakage-closed steady state, once for the whole set: it depends on
	// the characterization alone.
	warm, err := ev.WarmStart(legs[0].decodePower, s.Leak.Into, 1e-4)
	if err != nil {
		return fmt.Errorf("core: reactive warm start: %w", err)
	}

	// Runs with the same step share one integrator and advance together;
	// each distinct step is one lockstep pass, in order of first
	// appearance.
	for i := range cfgs {
		dt := cfgs[i].Normalized().Dt
		sameDt := func(c ReactiveConfig) bool { return c.Normalized().Dt == dt }
		if slices.ContainsFunc(cfgs[:i], sameDt) {
			continue
		}
		tr, err := ev.Transient(dt)
		if err != nil {
			return &ReactiveRunError{Run: i, Err: err}
		}
		if err := s.stepRuns(ev, tr, legs, warm, cfgs[i:], out[i:]); err != nil {
			return err
		}
	}
	return nil
}

// checkWindows rejects a step dt that splits a decode or migration
// window of ch into more steps than an int holds.
func (s *System) checkWindows(ch *Characterization, dt float64) error {
	for k, la := range ch.Legs {
		for _, cycles := range [...]int64{la.DecodeCycles, la.Migration.Cycles} {
			if _, err := thermal.Steps(float64(cycles)/s.ClockHz, dt); err != nil {
				return fmt.Errorf("core: leg %d: %w", k, err)
			}
		}
	}
	return nil
}

// stepRuns integrates every configuration of cfgs whose step is the
// first one's, into its result in out, from the warm state to the end of
// its horizon, through tr on the evaluator's lane driver. A run's cursor
// lives on its lane.
func (s *System) stepRuns(ev *thermal.Evaluator, tr *thermal.Transient, legs []legMeasurement, warm []float64, cfgs []ReactiveConfig, out []ReactiveResult) error {
	n, dt := s.Grid.N(), cfgs[0].Normalized().Dt
	var lanes [thermal.MaxStates]reactiveRun
	next := 0
	return ev.StepLanes(tr, s.Leak.Into, len(cfgs), thermal.LaneRuns{
		Start: func(c int, T []float64) ([]float64, error) {
			for ; next < len(cfgs); next++ {
				if cfg := cfgs[next].Normalized(); cfg.Dt == dt {
					r := &lanes[c]
					*r = reactiveRun{cfg: cfg, res: &out[next]}
					next++
					r.res.PeakC = -math.MaxFloat64
					if cfg.PeaksEvery > 0 {
						r.res.BlockPeaks = make([]float64, 0, timelineCap(cfg))
					}
					copy(T, warm)
					s.beginBlock(r, legs)
					return r.base, nil
				}
			}
			return nil, nil
		},
		Stepped: func(c int, T []float64) ([]float64, error) {
			r := &lanes[c]
			die := T[:n]
			if r.recording {
				p, _ := thermal.Peak(die)
				if p > r.res.PeakC {
					r.res.PeakC = p
				}
				r.meanAcc += thermal.Mean(die)
				r.meanN++
			}
			if r.left--; r.left > 0 || s.endWindow(r, legs, die) {
				return r.base, nil
			}
			return nil, nil
		},
	})
}

// reactiveLegs converts each characterized leg into the controller's
// power-map view: average decode power over the decode window, and
// migration power over the migration window plus the idle-clock power the
// halted PEs keep burning. The arithmetic mirrors Activity.PowerMap so the
// result is bit-identical to measuring the leg live.
func (s *System) reactiveLegs(ch *Characterization) []legMeasurement {
	n := s.Grid.N()
	legs := make([]legMeasurement, len(ch.Legs))
	maps := make([]float64, 2*n*len(ch.Legs))
	for k, la := range ch.Legs {
		decodeDur := float64(la.DecodeCycles) / s.ClockHz
		decodePower := maps[2*k*n : (2*k+1)*n : (2*k+1)*n]
		for i, e := range la.DecodeBlockJ {
			decodePower[i] = e / decodeDur
		}
		migDur := float64(la.Migration.Cycles) / s.ClockHz
		migPower := maps[(2*k+1)*n : (2*k+2)*n : (2*k+2)*n]
		for i, e := range la.MigBlockJ {
			migPower[i] = e / migDur
		}
		for i := range migPower {
			migPower[i] += float64(s.IdleFrac * decodePower[i])
		}
		legs[k] = legMeasurement{
			decodeCycles: la.DecodeCycles,
			decodePower:  decodePower,
			migCycles:    la.Migration.Cycles,
			migPower:     migPower,
		}
	}
	return legs
}

// beginBlock starts the decode window of the run's current block.
func (s *System) beginBlock(r *reactiveRun, legs []legMeasurement) {
	m := &legs[r.leg]
	r.recording = r.blk >= r.cfg.WarmupBlocks
	r.migrating = false
	r.left, _ = thermal.Steps(float64(m.decodeCycles)/s.ClockHz, r.cfg.Dt)
	r.base = m.decodePower
}

// endWindow closes the window the run just integrated; die holds the die
// temperatures its last step reached. After a decode window the
// quantized sensor peak is read and recorded, and a reading above the
// trigger opens the leg's migration window; otherwise, or after a
// migration window, the run moves on to its next block. It reports false
// when the run has reached its horizon, its result then complete.
func (s *System) endWindow(r *reactiveRun, legs []legMeasurement, die []float64) bool {
	cfg := &r.cfg
	m := &legs[r.leg]
	if !r.migrating {
		if r.recording {
			r.decodeCycles += m.decodeCycles
		}
		peak, _ := thermal.Peak(die)
		sensorPeak := quantize(peak, cfg.SensorQuantC)
		if cfg.PeaksEvery > 0 && r.blk%cfg.PeaksEvery == 0 {
			r.res.BlockPeaks = append(r.res.BlockPeaks, sensorPeak)
		}
		if sensorPeak > cfg.TriggerC {
			r.migrating = true
			r.left, _ = thermal.Steps(float64(m.migCycles)/s.ClockHz, cfg.Dt)
			r.base = m.migPower
			return true
		}
	} else {
		if r.recording {
			r.migCycles += m.migCycles
			r.res.Migrations++
		}
		r.leg = (r.leg + 1) % len(legs)
	}
	if r.blk++; r.blk < cfg.SimBlocks {
		s.beginBlock(r, legs)
		return true
	}
	r.res.MeanC = r.meanAcc / float64(r.meanN)
	r.res.ThroughputPenalty = float64(r.migCycles) / float64(r.decodeCycles+r.migCycles)
	return false
}

// maxTimelinePrealloc bounds the timeline a run allocates up front; a
// longer one grows by append past it, so no request's horizon or stride
// sizes an allocation by itself.
const maxTimelinePrealloc = 1 << 14

// timelineCap is the capacity a run's BlockPeaks starts with: the number
// of boundaries it records (blocks 0, k, 2k, ... below SimBlocks, for
// PeaksEvery k > 0 and SimBlocks > 0, as setDefaults leaves them),
// computed without overflow and capped at maxTimelinePrealloc.
func timelineCap(c ReactiveConfig) int {
	return min((c.SimBlocks-1)/c.PeaksEvery+1, maxTimelinePrealloc)
}

func quantize(v, lsb float64) float64 { return math.Floor(v/lsb) * lsb }
