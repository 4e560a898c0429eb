package core

import (
	"fmt"
	"math"
	"slices"

	"hotnoc/internal/geom"
	"hotnoc/internal/power"
	"hotnoc/internal/thermal"
)

// LegActivity is the cycle-accurate outcome of one orbit leg: one block
// decoded at the leg's placement, followed by the migration that ends the
// leg. All quantities are for a single decoded block; the evaluation stage
// scales them to the configured migration period, which is exact because
// the engine's traffic is data-independent: it runs a static schedule of
// fixed iterations and carries no message values (appmap's
// TestTrafficMatchesValueOracle pins it against a value-carrying
// decoder). It also simulates a half-iteration of a block only when no
// earlier one of its kind started from arbitration pointers that agree
// on every port that half-iteration's arbitration read, and replays the
// repeats (TestPhaseReplayMatchesSimulation). A decode that repeats one
// any clone of the same build has simulated, at the same placement and
// arbitration state, is replayed from the build's decode memo
// (TestDecodeMemoMatchesSimulation), and a migration that repeats one of
// the build's, with the same permutation, from its migration memo
// (TestMigrationMemoMatchesSimulation).
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
// once and the cheap thermal evaluation runs per variant. Decodes that
// repeat across the schemes of one build, the static-placement baseline
// among them, are served from the build's decode memo, and migrations
// that repeat (a scheme's orbit applies one step over and over) from its
// migration memo, so the simulation is shared across legs and schemes
// too.
// It is plain, immutable data that any number of goroutines may evaluate
// at once. The sweep layer persists it with gob, which round-trips
// float64 bit-exactly, so a restored characterization evaluates bitwise
// identically to the original.
type Characterization struct {
	// SchemeName records which scheme produced the orbit, so evaluating it
	// under the wrong scheme fails loudly instead of silently evaluating
	// the wrong legs.
	SchemeName string
	// BaselineCycles and BaselineBlockJ describe one block decoded at the
	// static thermally-aware placement.
	BaselineCycles int64
	BaselineBlockJ []float64
	// Legs covers the scheme's full orbit in order.
	Legs []LegActivity
}

// Characterize runs the expensive stage of an evaluation: it decodes one
// block at the static placement and at every placement of the scheme's
// orbit, executes each migration on the cycle-accurate network, and
// records the activity-derived energies. A decode or migration that
// repeats one in the build's decode or migration memo is replayed from
// it. The result feeds any number of Evaluate calls.
func (s *System) Characterize(scheme Scheme) (*Characterization, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if scheme.StepFn == nil {
		return nil, fmt.Errorf("core: no migration scheme configured")
	}
	g := s.Grid
	net := s.Engine.Net
	ch := &Characterization{SchemeName: scheme.Name}

	// Static baseline decode.
	if err := s.Engine.SetPlacement(s.InitialPlace); err != nil {
		return nil, err
	}
	net.ResetStats()
	block := s.BlockSource(0) // every leg decodes the same block
	cycles, err := s.Engine.Decode(block)
	if err != nil {
		return nil, fmt.Errorf("core: baseline decode: %w", err)
	}
	ch.BaselineCycles = cycles
	ch.BaselineBlockJ = blockEnergies(net.Act, s.Energy, g.N())

	// One decode plus one migration per orbit position.
	orbit := scheme.OrbitLen(g)
	place := append([]int(nil), s.InitialPlace...)
	for leg := 0; leg < orbit; leg++ {
		if err := s.Engine.SetPlacement(place); err != nil {
			return nil, err
		}
		net.ResetStats()
		cycles, err := s.Engine.Decode(block)
		if err != nil {
			return nil, fmt.Errorf("core: leg %d decode: %w", leg, err)
		}
		la := LegActivity{
			DecodeCycles: cycles,
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
}

// Evaluate runs the cheap stage: it folds the characterization's energies
// into per-leg power maps for the configured period and drives the thermal
// model to its quasi-steady cycle, reusing the system's cached thermal
// factorisations. Many Evaluate calls — different periods, the
// migration-energy ablation — amortise one Characterize, and they may run
// concurrently on one System.
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
	ev, err := s.takeEvaluator()
	if err != nil {
		return RunResult{}, err
	}
	defer s.putEvaluator(ev)

	var res RunResult
	baseRes, err := s.baseline(ev, ch)
	if err != nil {
		return RunResult{}, fmt.Errorf("core: baseline thermal: %w", err)
	}
	// Copy the per-block maxima so callers mutating the result cannot
	// corrupt the memo (or each other).
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

	migRes, err := ev.RunCycle(entries, s.cycleOpts())
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

// baselineEntry is one memoized baseline cycle and the inputs it came from.
type baselineEntry struct {
	cycles int64
	blockJ []float64
	res    thermal.CycleResult
}

// baseline returns the static-placement steady cycle for ch. It depends on
// neither the period, the energy ablation nor the scheme, so the System
// memoizes the most recent one; the memo serves only a characterization
// whose baseline inputs equal its own bit for bit.
//
//hotnoc:deterministic
func (s *System) baseline(ev *thermal.Evaluator, ch *Characterization) (thermal.CycleResult, error) {
	s.mu.Lock()
	e := s.baseMemo
	s.mu.Unlock()
	if e != nil && e.cycles == ch.BaselineCycles &&
		slices.EqualFunc(e.blockJ, ch.BaselineBlockJ, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
		return e.res, nil
	}
	dur := float64(ch.BaselineCycles) / s.ClockHz
	basePower := make([]float64, s.Grid.N())
	for i, j := range ch.BaselineBlockJ {
		basePower[i] = j / dur
	}
	res, err := ev.RunCycle([]thermal.ScheduleEntry{{
		Power: basePower, Duration: dur, Label: "static",
	}}, s.cycleOpts())
	if err != nil {
		return res, err
	}
	s.mu.Lock()
	s.baseMemo = &baselineEntry{cycles: ch.BaselineCycles, blockJ: slices.Clone(ch.BaselineBlockJ), res: res}
	s.mu.Unlock()
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
