package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"hotnoc/internal/geom"
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
	orbit := scheme.OrbitLen(g)
	ch := &Characterization{SchemeName: scheme.Name, Legs: make([]LegActivity, 0, orbit)}
	// One allocation holds every per-block energy of the result: the
	// baseline's, then each leg's decode and migration.
	n := g.N()
	energies := make([]float64, (1+2*orbit)*n)
	blockEnergies := func() []float64 {
		out := energies[:n:n]
		energies = energies[n:]
		for i := range out {
			out[i] = net.Act.BlockEnergyJ(s.Energy, i)
		}
		return out
	}

	// Static baseline decode.
	if err := s.Engine.SetPlacement(s.InitialPlace); err != nil {
		return nil, err
	}
	net.ResetStats()
	cycles, err := s.Engine.DecodeTraffic()
	if err != nil {
		return nil, fmt.Errorf("core: baseline decode: %w", err)
	}
	ch.BaselineCycles = cycles
	ch.BaselineBlockJ = blockEnergies()

	// One decode plus one migration per orbit position.
	place := append([]int(nil), s.InitialPlace...)
	next := make([]int, len(place))
	for leg := 0; leg < orbit; leg++ {
		if err := s.Engine.SetPlacement(place); err != nil {
			return nil, err
		}
		net.ResetStats()
		cycles, err := s.Engine.DecodeTraffic()
		if err != nil {
			return nil, fmt.Errorf("core: leg %d decode: %w", leg, err)
		}
		la := LegActivity{
			DecodeCycles: cycles,
			DecodeBlockJ: blockEnergies(),
		}
		la.DecodeJ = sum(la.DecodeBlockJ)

		la.Step = scheme.Step(leg, g)
		perm := geom.FromTransform(g, la.Step)
		net.ResetStats()
		la.Migration, err = s.Migrator.Execute(perm)
		if err != nil {
			return nil, fmt.Errorf("core: leg %d migration: %w", leg, err)
		}
		la.MigBlockJ = blockEnergies()
		la.MigJ = sum(la.MigBlockJ)

		// Workload follows the plane: the PE at block p moves to perm(p).
		for l, blkIdx := range place {
			next[l] = perm.Dst(blkIdx)
		}
		place, next = next, place

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
// concurrently on one System. It is the one-point case of EvaluateSet.
func (s *System) Evaluate(ch *Characterization, cfg EvalConfig) (RunResult, error) {
	var res [1]RunResult
	if err := s.evaluate([]*Characterization{ch}, []EvalConfig{cfg}, res[:]); err != nil {
		// A lone point needs no index.
		if pe := (*EvalPointError)(nil); errors.As(err, &pe) {
			err = pe.Err
		}
		return RunResult{}, err
	}
	return res[0], nil
}

// EvaluateSet evaluates point i, cfgs[i] against chs[i], for every i and
// returns the results in input order, each bitwise identical to Evaluate
// of that point alone and each with slices of its own. The points'
// thermal cycles run as one thermal.Evaluator.RunCycleSet, so up to four
// of them take each backward-Euler step through one banded solve: the
// schemes and periods of one configuration share the network, the step
// and the leakage model. A point that fails validation (including a
// period whose cycle count does not fit an int64) fails the set before
// any work starts; a failure that belongs to one point is an
// *EvalPointError naming it.
func (s *System) EvaluateSet(chs []*Characterization, cfgs []EvalConfig) ([]RunResult, error) {
	if len(chs) != len(cfgs) {
		return nil, fmt.Errorf("core: %d characterizations for %d evaluation configs", len(chs), len(cfgs))
	}
	out := make([]RunResult, len(cfgs))
	if err := s.evaluate(chs, cfgs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// EvalPointError is the failure of one point of an evaluation set; Point
// is its index in the set.
type EvalPointError struct {
	Point int
	Err   error
}

func (e *EvalPointError) Error() string {
	return fmt.Sprintf("evaluation point %d: %v", e.Point, e.Err)
}

func (e *EvalPointError) Unwrap() error { return e.Err }

// evaluate evaluates the points (chs[i], cfgs[i]) into out (all three the
// same length); see EvaluateSet.
func (s *System) evaluate(chs []*Characterization, cfgs []EvalConfig, out []RunResult) error {
	for i, ch := range chs {
		if ch == nil || len(ch.Legs) == 0 {
			return &EvalPointError{Point: i, Err: fmt.Errorf("core: empty characterization")}
		}
		if b := cfgs[i].BlocksPerPeriod; b < 0 {
			return &EvalPointError{Point: i, Err: fmt.Errorf("core: BlocksPerPeriod %d < 1", b)}
		}
	}
	if len(chs) == 0 {
		return nil
	}

	// One allocation holds every point's leg power maps: the schedules
	// are internal to the set, so they need not outlive it separately.
	n, legs := s.Grid.N(), 0
	for _, ch := range chs {
		legs += len(ch.Legs)
	}
	maps := make([]float64, legs*n)
	scheds := make([][]thermal.ScheduleEntry, len(chs))
	for i, ch := range chs {
		var err error
		if scheds[i], err = s.schedule(ch, cfgs[i], &out[i], maps[:len(ch.Legs)*n]); err != nil {
			return &EvalPointError{Point: i, Err: err}
		}
		maps = maps[len(ch.Legs)*n:]
	}

	ev, err := s.takeEvaluator()
	if err != nil {
		return err
	}
	defer s.putEvaluator(ev)
	for i, ch := range chs {
		baseRes, err := s.baseline(ev, ch)
		if err != nil {
			return &EvalPointError{Point: i, Err: fmt.Errorf("core: baseline thermal: %w", err)}
		}
		res := &out[i]
		// Copy the per-block maxima so callers mutating the result cannot
		// corrupt the memo (or each other).
		res.BaselinePeakC, res.BaselinePeakAt = baseRes.PeakC, baseRes.PeakBlock
		res.BaselineMeanC = baseRes.MeanC
		res.BaselineMaxTemps = slices.Clone(baseRes.MaxPerBlock)
	}

	cycles := make([]thermal.CycleResult, len(chs))
	if err := ev.RunCycleSet(scheds, s.cycleOpts(), cycles); err != nil {
		if se := (*thermal.CycleSetError)(nil); errors.As(err, &se) {
			return &EvalPointError{Point: se.Schedule, Err: fmt.Errorf("core: migrated thermal: %w", se.Err)}
		}
		return fmt.Errorf("core: migrated thermal: %w", err)
	}
	for i, migRes := range cycles {
		res := &out[i]
		res.MigratedPeakC, res.MigratedPeakAt = migRes.PeakC, migRes.PeakBlock
		res.MigratedMeanC = migRes.MeanC
		res.MigratedMaxTemps = migRes.MaxPerBlock
		res.ReductionC = res.BaselinePeakC - res.MigratedPeakC
	}
	return nil
}

// schedule builds the thermal schedule of one point — one entry per leg,
// its power map carved from maps — and fills the point's leg reports,
// migration energy, throughput penalty and period into res. A period
// whose cycle count does not fit an int64 is an error.
//
// Each entry is B blocks of decode plus the migration window,
// energy-folded into the leg's average power map. The migration window
// (hundreds of cycles) is far below the die thermal time constants, so
// folding loses nothing the RC model could resolve.
func (s *System) schedule(ch *Characterization, cfg EvalConfig, res *RunResult, maps []float64) ([]thermal.ScheduleEntry, error) {
	n := s.Grid.N()
	blocks := int64(max(cfg.BlocksPerPeriod, 1))
	b := float64(blocks)
	entries := make([]thermal.ScheduleEntry, 0, len(ch.Legs))
	res.Legs = make([]LegReport, 0, len(ch.Legs))
	var totalDecode, totalMig int64
	for leg, la := range ch.Legs {
		// The orbit's cycle count, totalDecode+totalMig, must fit: the
		// period and the throughput penalty are read from it.
		room := math.MaxInt64 - totalDecode - totalMig
		if la.DecodeCycles > 0 && blocks > room/la.DecodeCycles || la.Migration.Cycles > room-blocks*la.DecodeCycles {
			return nil, fmt.Errorf("core: a period of %d blocks overflows the cycle count at leg %d (%d decode cycles per block)",
				blocks, leg, la.DecodeCycles)
		}
		legDur := (float64(b*float64(la.DecodeCycles)) + float64(la.Migration.Cycles)) / s.ClockHz
		legPower := maps[leg*n : (leg+1)*n : (leg+1)*n]
		for i := range legPower {
			e := float64(b * la.DecodeBlockJ[i])
			if !cfg.ExcludeMigrationEnergy {
				// State transfer plus the idle-clock power the halted PEs
				// keep burning for the whole migration window.
				e += la.MigBlockJ[i] +
					float64(s.IdleFrac*la.DecodeBlockJ[i]/float64(la.DecodeCycles)*float64(la.Migration.Cycles))
			}
			legPower[i] = e / legDur
		}
		entries = append(entries, thermal.ScheduleEntry{Power: legPower, Duration: legDur})

		migTotalEnergy := la.MigJ +
			float64(s.IdleFrac*la.DecodeJ/float64(la.DecodeCycles)*float64(la.Migration.Cycles))
		totalDecode += blocks * la.DecodeCycles
		totalMig += la.Migration.Cycles
		res.Legs = append(res.Legs, LegReport{
			DecodeCycles:     la.DecodeCycles,
			Migration:        la.Migration,
			DecodeEnergyJ:    b * la.DecodeJ,
			MigrationEnergyJ: migTotalEnergy,
		})
		res.MigrationEnergyJ += migTotalEnergy
	}
	res.ThroughputPenalty = float64(totalMig) / float64(totalDecode+totalMig)
	res.PeriodSec = float64(totalDecode+totalMig) / float64(len(ch.Legs)) / s.ClockHz
	return entries, nil
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
	res, err := ev.RunCycle([]thermal.ScheduleEntry{{Power: basePower, Duration: dur}}, s.cycleOpts())
	if err != nil {
		return res, err
	}
	s.mu.Lock()
	s.baseMemo = &baselineEntry{cycles: ch.BaselineCycles, blockJ: slices.Clone(ch.BaselineBlockJ), res: res}
	s.mu.Unlock()
	return res, nil
}

// sum adds a slice in index order: a leg's total energies are the serial
// sums of its per-block energies, an order the goldens fix.
func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}
