package core

import (
	"fmt"

	"hotnoc/internal/geom"
	"hotnoc/internal/power"
	"hotnoc/internal/thermal"
)

// LegActivity is the cycle-accurate outcome of one orbit leg: one block
// decoded at the leg's placement, followed by the migration that ends the
// leg. All quantities are for a single decoded block; the evaluation stage
// scales them to the configured migration period, which is exact because
// traffic timing and event counts in the engine are data-independent
// (fixed iterations, partition-determined batching). The decoder itself
// now relies on this: it simulates each distinct half-iteration of a
// block once and replays the repeats, and appmap's
// TestPhaseReplayMatchesSimulation pins that against simulating them all.
type LegActivity struct {
	// Step is the transform the migration at the end of this leg applies.
	Step geom.Transform
	// DecodeCycles is the duration of one block decode at this placement.
	DecodeCycles int64
	// DecodeBlockJ is the per-block dynamic energy of one decode and
	// DecodeJ its chip-wide sum.
	DecodeBlockJ []float64
	DecodeJ      float64
	// Migration describes the state transfer that ends the leg.
	Migration MigrationStats
	// MigBlockJ is the per-block dynamic energy of the migration (state
	// transfer plus conversion) and MigJ its chip-wide sum.
	MigBlockJ []float64
	MigJ      float64
}

// Characterization is the deterministic outcome of simulating one scheme's
// full orbit on the cycle-accurate NoC: per-leg decode and migration
// activity, cycles and energies, plus the static-placement baseline. It is
// independent of the migration period and of the migration-energy
// ablation, so one characterization serves every period and ablation
// variant of the same (system, scheme) — the expensive NoC simulation runs
// once and the cheap thermal evaluation runs per variant.
type Characterization struct {
	// Scheme is the migration scheme that was characterized.
	Scheme Scheme
	// BaselineCycles and BaselineBlockJ describe one block decoded at the
	// static thermally-aware placement.
	BaselineCycles int64
	BaselineBlockJ []float64
	// Legs covers the scheme's full orbit in order.
	Legs []LegActivity

	// baseCache memoizes the period-independent static-baseline thermal
	// cycle per integrator option set, so repeated Evaluate calls pay for
	// it once. Like the System it came from, a Characterization must not
	// be evaluated from multiple goroutines.
	baseCache map[baselineKey]thermal.CycleResult
}

// baselineKey identifies a baseline evaluation by the scalar integrator
// options; custom leakage hooks are never cached (their identity cannot
// be compared).
type baselineKey struct {
	dt, tol float64
	maxReps int
}

// Characterize runs the expensive stage of an evaluation: it decodes one
// block at the static placement and at every placement of the scheme's
// orbit, executes each migration on the cycle-accurate network, and
// records the activity-derived energies. The result feeds any number of
// Evaluate calls.
func (s *System) Characterize(scheme Scheme) (*Characterization, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if scheme.StepFn == nil {
		return nil, fmt.Errorf("core: no migration scheme configured")
	}
	g := s.Grid
	net := s.Engine.Net
	ch := &Characterization{
		Scheme:    scheme,
		baseCache: map[baselineKey]thermal.CycleResult{},
	}

	// Static baseline decode.
	if err := s.Engine.SetPlacement(s.InitialPlace); err != nil {
		return nil, err
	}
	net.ResetStats()
	blk, err := s.Engine.Decode(s.BlockSource(0))
	if err != nil {
		return nil, fmt.Errorf("core: baseline decode: %w", err)
	}
	ch.BaselineCycles = blk.Cycles
	ch.BaselineBlockJ = blockEnergies(net.Act, s.Energy, g.N())

	// One decode plus one migration per orbit position.
	orbit := scheme.OrbitLen(g)
	place := append([]int(nil), s.InitialPlace...)
	for leg := 0; leg < orbit; leg++ {
		if err := s.Engine.SetPlacement(place); err != nil {
			return nil, err
		}
		net.ResetStats()
		blk, err := s.Engine.Decode(s.BlockSource(leg))
		if err != nil {
			return nil, fmt.Errorf("core: leg %d decode: %w", leg, err)
		}
		la := LegActivity{
			DecodeCycles: blk.Cycles,
			DecodeBlockJ: blockEnergies(net.Act, s.Energy, g.N()),
		}
		la.DecodeJ = sum(la.DecodeBlockJ)

		la.Step = scheme.Step(leg, g)
		perm := geom.FromTransform(g, la.Step)
		net.ResetStats()
		la.Migration, err = s.Migrator.Execute(perm)
		if err != nil {
			return nil, fmt.Errorf("core: leg %d migration: %w", leg, err)
		}
		la.MigBlockJ = blockEnergies(net.Act, s.Energy, g.N())
		la.MigJ = sum(la.MigBlockJ)

		// Workload follows the plane: the PE at block p moves to perm(p).
		next := make([]int, len(place))
		for l, blkIdx := range place {
			next[l] = perm.Dst(blkIdx)
		}
		place = next
		s.IO.Advance(la.Step)

		ch.Legs = append(ch.Legs, la)
	}
	return ch, nil
}

// EvalConfig selects the migration period and ablations for one thermal
// evaluation of a characterization.
type EvalConfig struct {
	// BlocksPerPeriod sets the migration period in decoded blocks
	// (default 1).
	BlocksPerPeriod int
	// ExcludeMigrationEnergy drops state-transfer and conversion energy
	// from the thermal schedule. Migration time is always modelled.
	ExcludeMigrationEnergy bool
	// CycleOpts overrides the thermal integrator options; zero values get
	// defaults.
	CycleOpts thermal.CycleOptions
}

// Evaluate runs the cheap stage: it folds the characterization's energies
// into per-leg power maps for the configured period and drives the thermal
// model to its quasi-steady cycle, reusing the system's cached thermal
// factorisations. Many Evaluate calls — different periods, the
// migration-energy ablation — amortise one Characterize.
func (s *System) Evaluate(ch *Characterization, cfg EvalConfig) (RunResult, error) {
	if ch == nil || len(ch.Legs) == 0 {
		return RunResult{}, fmt.Errorf("core: empty characterization")
	}
	if cfg.BlocksPerPeriod == 0 {
		cfg.BlocksPerPeriod = 1
	}
	if cfg.BlocksPerPeriod < 1 {
		return RunResult{}, fmt.Errorf("core: BlocksPerPeriod %d < 1", cfg.BlocksPerPeriod)
	}
	g := s.Grid
	b := float64(cfg.BlocksPerPeriod)
	opts := withLeak(cfg.CycleOpts, s.Leak)
	ev, err := s.thermalEvaluator()
	if err != nil {
		return RunResult{}, err
	}

	var res RunResult

	// Static baseline steady cycle: independent of the period and the
	// energy ablation, so it is computed once per characterization and
	// option set, and replayed for every further variant.
	key := baselineKey{dt: cfg.CycleOpts.Dt, tol: cfg.CycleOpts.TolC, maxReps: cfg.CycleOpts.MaxReps}
	cacheable := cfg.CycleOpts.Leak == nil && ch.baseCache != nil
	baseRes, cached := ch.baseCache[key]
	if !cacheable || !cached {
		baseDur := float64(ch.BaselineCycles) / s.ClockHz
		basePower := make([]float64, g.N())
		for i, e := range ch.BaselineBlockJ {
			basePower[i] = e / baseDur
		}
		baseRes, err = ev.RunCycle([]thermal.ScheduleEntry{{
			Power: basePower, Duration: baseDur, Label: "static",
		}}, opts)
		if err != nil {
			return RunResult{}, fmt.Errorf("core: baseline thermal: %w", err)
		}
		if cacheable {
			ch.baseCache[key] = baseRes
		}
	}
	// Copy the per-block maxima so callers mutating the result cannot
	// corrupt the cache (or each other).
	baseRes.MaxPerBlock = append([]float64(nil), baseRes.MaxPerBlock...)
	res.BaselinePeakC, res.BaselinePeakAt = baseRes.PeakC, baseRes.PeakBlock
	res.BaselineMeanC = baseRes.MeanC
	res.BaselineMaxTemps = baseRes.MaxPerBlock

	// One thermal entry per leg: B blocks of decode plus the migration
	// window, energy-folded into the leg's average power map. The migration
	// window (hundreds of cycles) is far below the die thermal time
	// constants, so folding loses nothing the RC model could resolve.
	entries := make([]thermal.ScheduleEntry, 0, len(ch.Legs))
	var totalDecode, totalMig int64
	for leg, la := range ch.Legs {
		legDur := (b*float64(la.DecodeCycles) + float64(la.Migration.Cycles)) / s.ClockHz
		legPower := make([]float64, g.N())
		for i := range legPower {
			e := b * la.DecodeBlockJ[i]
			if !cfg.ExcludeMigrationEnergy {
				// State transfer plus the idle-clock power the halted PEs
				// keep burning for the whole migration window.
				e += la.MigBlockJ[i] +
					s.IdleFrac*la.DecodeBlockJ[i]/float64(la.DecodeCycles)*float64(la.Migration.Cycles)
			}
			legPower[i] = e / legDur
		}
		entries = append(entries, thermal.ScheduleEntry{
			Power: legPower, Duration: legDur,
			Label: fmt.Sprintf("leg %d (%s)", leg, la.Step.Name),
		})

		migTotalEnergy := la.MigJ +
			s.IdleFrac*la.DecodeJ/float64(la.DecodeCycles)*float64(la.Migration.Cycles)
		totalDecode += int64(b) * la.DecodeCycles
		totalMig += la.Migration.Cycles
		res.Legs = append(res.Legs, LegReport{
			DecodeCycles:     la.DecodeCycles,
			Migration:        la.Migration,
			DecodeEnergyJ:    b * la.DecodeJ,
			MigrationEnergyJ: migTotalEnergy,
		})
		res.MigrationEnergyJ += migTotalEnergy
	}

	migRes, err := ev.RunCycle(entries, opts)
	if err != nil {
		return RunResult{}, fmt.Errorf("core: migrated thermal: %w", err)
	}
	res.MigratedPeakC, res.MigratedPeakAt = migRes.PeakC, migRes.PeakBlock
	res.MigratedMeanC = migRes.MeanC
	res.MigratedMaxTemps = migRes.MaxPerBlock
	res.ReductionC = res.BaselinePeakC - res.MigratedPeakC
	res.ThroughputPenalty = float64(totalMig) / float64(totalDecode+totalMig)
	res.PeriodSec = float64(totalDecode+totalMig) / float64(len(ch.Legs)) / s.ClockHz
	return res, nil
}

// blockEnergies snapshots the per-block dynamic energy of the current
// activity window.
func blockEnergies(act *power.Activity, e power.Energy, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = act.BlockEnergyJ(e, i)
	}
	return out
}

// sum adds a slice in index order (the same order Activity.TotalEnergyJ
// uses, keeping evaluation bitwise identical to the fused path).
func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}
