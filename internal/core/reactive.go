package core

import (
	"fmt"
	"math"

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
// the fused RunReactive.
func (s *System) EvaluateReactive(ch *Characterization, cfg ReactiveConfig) (ReactiveResult, error) {
	if err := s.Validate(); err != nil {
		return ReactiveResult{}, err
	}
	if ch == nil || len(ch.Legs) == 0 {
		return ReactiveResult{}, fmt.Errorf("core: empty characterization")
	}
	if cfg.Scheme.StepFn == nil {
		return ReactiveResult{}, fmt.Errorf("core: no migration scheme configured")
	}
	if cfg.Scheme.Name != ch.SchemeName {
		return ReactiveResult{}, fmt.Errorf("core: reactive config selects scheme %q but characterization is for %q",
			cfg.Scheme.Name, ch.SchemeName)
	}
	cfg.setDefaults()
	g := s.Grid
	orbit := len(ch.Legs)

	// Convert each characterized leg into the controller's power-map view:
	// average decode power over the decode window, and migration power over
	// the migration window plus the idle-clock power the halted PEs keep
	// burning. The arithmetic mirrors Activity.PowerMap so the result is
	// bit-identical to measuring the leg live.
	legs := make([]legMeasurement, orbit)
	for k, la := range ch.Legs {
		decodeDur := float64(la.DecodeCycles) / s.ClockHz
		decodePower := make([]float64, g.N())
		for i, e := range la.DecodeBlockJ {
			decodePower[i] = e / decodeDur
		}
		migDur := float64(la.Migration.Cycles) / s.ClockHz
		migPower := make([]float64, g.N())
		for i, e := range la.MigBlockJ {
			migPower[i] = e / migDur
		}
		for i := range migPower {
			migPower[i] += s.IdleFrac * decodePower[i]
		}
		legs[k] = legMeasurement{
			decodeCycles: la.DecodeCycles,
			decodePower:  decodePower,
			migCycles:    la.Migration.Cycles,
			migPower:     migPower,
		}
	}

	// Warm-start the thermal state from the static placement's
	// leakage-closed steady state.
	ev, err := s.takeEvaluator()
	if err != nil {
		return ReactiveResult{}, err
	}
	defer s.putEvaluator(ev)
	// Scratch for the integration hot loop: the leakage map and per-step
	// power map are reused across every step of the horizon. The leakage
	// model and the statistics read the die prefix of the thermal state
	// in place.
	n := g.N()
	leakBuf := make([]float64, n)
	pmBuf := make([]float64, n)

	ss := ev.Steady()
	state := make([]float64, s.Therm.NNodes)
	next := make([]float64, s.Therm.NNodes)
	ss.SolveFullInto(state, legs[0].decodePower)
	for it := 0; it < 50; it++ {
		s.Leak.Into(leakBuf, state[:n])
		copy(pmBuf, legs[0].decodePower)
		for i, l := range leakBuf {
			pmBuf[i] += l
		}
		ss.SolveFullInto(next, pmBuf)
		done := maxAbsDiff(next, state) < 1e-4
		state, next = next, state
		if done {
			break
		}
	}

	tr, err := ev.Transient(cfg.Dt)
	if err != nil {
		return ReactiveResult{}, err
	}
	tr.SetState(state, 0)
	die := tr.T[:n]

	res := ReactiveResult{PeakC: -math.MaxFloat64}
	var meanAcc float64
	var meanN int
	recording := false
	integrate := func(basePower []float64, durSec float64) {
		steps := int(math.Round(durSec / cfg.Dt))
		if steps < 1 {
			steps = 1
		}
		for i := 0; i < steps; i++ {
			s.Leak.Into(leakBuf, die)
			copy(pmBuf, basePower)
			for j, l := range leakBuf {
				pmBuf[j] += l
			}
			tr.Step(pmBuf)
			if !recording {
				continue
			}
			p, _ := thermal.Peak(die)
			if p > res.PeakC {
				res.PeakC = p
			}
			meanAcc += thermal.Mean(die)
			meanN++
		}
	}

	k := 0
	var decodeCycles, migCycles int64
	for blk := 0; blk < cfg.SimBlocks; blk++ {
		recording = blk >= cfg.WarmupBlocks
		m := &legs[k]
		integrate(m.decodePower, float64(m.decodeCycles)/s.ClockHz)
		if recording {
			decodeCycles += m.decodeCycles
		}

		sensorPeak := quantize(maxOf(die), cfg.SensorQuantC)
		if cfg.PeaksEvery > 0 && blk%cfg.PeaksEvery == 0 {
			res.BlockPeaks = append(res.BlockPeaks, sensorPeak)
		}
		if sensorPeak > cfg.TriggerC {
			integrate(m.migPower, float64(m.migCycles)/s.ClockHz)
			if recording {
				migCycles += m.migCycles
				res.Migrations++
			}
			k = (k + 1) % orbit
		}
	}

	res.MeanC = meanAcc / float64(meanN)
	res.ThroughputPenalty = float64(migCycles) / float64(decodeCycles+migCycles)
	return res, nil
}

func quantize(v, lsb float64) float64 { return math.Floor(v/lsb) * lsb }

func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}
