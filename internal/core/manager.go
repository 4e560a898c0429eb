package core

import (
	"fmt"

	"hotnoc/internal/appmap"
	"hotnoc/internal/geom"
	"hotnoc/internal/ldpc"
	"hotnoc/internal/power"
	"hotnoc/internal/thermal"
)

// System bundles one test chip: workload engine, network (inside the
// engine), thermal model, energy tables and the migration machinery.
type System struct {
	Grid geom.Grid
	// Therm is the chip's RC thermal model.
	Therm *thermal.Network
	// Energy is the (calibrated) per-event energy table.
	Energy power.Energy
	// Leak is the temperature-dependent leakage model.
	Leak power.Leakage
	// ClockHz converts cycles to seconds (default 250 MHz, a 160 nm-
	// plausible NoC clock).
	ClockHz float64
	// Engine executes the LDPC workload on the cycle-accurate NoC.
	Engine *appmap.Engine
	// Migrator executes state transfers.
	Migrator *Migrator
	// InitialPlace is the thermally-aware static placement (logical PE ->
	// physical block).
	InitialPlace []int
	// IdleFrac is the fraction of a block's active power it keeps burning
	// while halted during a migration (clock trees and always-on logic;
	// ~35% of dynamic power at 160 nm). Longer migrations therefore cost
	// proportionally more energy — the reason rotation, with the most
	// transfer phases, has the largest reconfiguration energy penalty.
	IdleFrac float64

	// thermEval caches the thermal LU factorisations across evaluations.
	thermEval *thermal.Evaluator
}

// thermalEvaluator lazily creates the cached thermal evaluator.
func (s *System) thermalEvaluator() (*thermal.Evaluator, error) {
	if s.thermEval == nil {
		ev, err := thermal.NewEvaluator(s.Therm)
		if err != nil {
			return nil, err
		}
		s.thermEval = ev
	}
	return s.thermEval, nil
}

// BlockSource returns a zero block of Code.N channel LLRs for the block
// decoded at a migration leg. The engine's traffic does not depend on the
// values, so every leg gets the same block. The method survives only for
// bench/layers.go's decode probe, until a change to the benchmark moves
// that probe.
func (s *System) BlockSource(leg int) []ldpc.LLR {
	return make([]ldpc.LLR, s.Engine.Code.N)
}

// Validate reports wiring mistakes.
func (s *System) Validate() error {
	if s.Therm == nil || s.Engine == nil || s.Migrator == nil {
		return fmt.Errorf("core: system missing thermal model, engine or migrator")
	}
	if s.Therm.NDie != s.Grid.N() {
		return fmt.Errorf("core: thermal model has %d blocks for %d PEs", s.Therm.NDie, s.Grid.N())
	}
	if s.ClockHz <= 0 {
		return fmt.Errorf("core: non-positive clock %g", s.ClockHz)
	}
	if len(s.InitialPlace) != s.Grid.N() {
		return fmt.Errorf("core: initial placement has %d entries for %d PEs",
			len(s.InitialPlace), s.Grid.N())
	}
	if s.IdleFrac < 0 || s.IdleFrac > 1 {
		return fmt.Errorf("core: IdleFrac %g outside [0,1]", s.IdleFrac)
	}
	return nil
}

// RunConfig selects a migration policy for one evaluation.
type RunConfig struct {
	// Scheme is the migration scheme under test.
	Scheme Scheme
	// BlocksPerPeriod sets the migration period in decoded blocks
	// (default 1 — the paper's 109 µs-class base period; 4 and 8
	// correspond to its 437.2 µs and 874.4 µs studies).
	BlocksPerPeriod int
	// ExcludeMigrationEnergy drops state-transfer and conversion energy
	// from the thermal schedule (ablation for the paper's rotation-energy
	// observation). Migration time is always modelled.
	ExcludeMigrationEnergy bool
	// CycleOpts overrides the thermal integrator options; zero values get
	// defaults.
	CycleOpts thermal.CycleOptions
}

// LegReport describes one leg (one placement dwell plus the following
// migration) of the quasi-steady thermal cycle.
type LegReport struct {
	// DecodeCycles is the duration of one block decode at this placement.
	DecodeCycles int64
	// Migration describes the state transfer that ends the leg.
	Migration MigrationStats
	// DecodeEnergyJ and MigrationEnergyJ split the leg's dissipation.
	DecodeEnergyJ    float64
	MigrationEnergyJ float64
}

// RunResult compares a migration scheme against the static baseline on the
// same chip, placement and workload.
type RunResult struct {
	// Baseline is the static thermally-aware placement's steady state.
	BaselinePeakC  float64
	BaselinePeakAt int
	BaselineMeanC  float64

	// Migrated is the quasi-steady thermal cycle under the scheme.
	MigratedPeakC  float64
	MigratedPeakAt int
	MigratedMeanC  float64

	// ReductionC = BaselinePeakC - MigratedPeakC (positive is good).
	ReductionC float64

	// ThroughputPenalty is migration downtime over total time.
	ThroughputPenalty float64
	// PeriodSec is the average migration period in seconds.
	PeriodSec float64
	// MigrationEnergyJ is the state-transfer energy per thermal cycle.
	MigrationEnergyJ float64

	// Legs details each placement dwell in orbit order.
	Legs []LegReport

	// BaselineMaxTemps and MigratedMaxTemps hold each block's maximum
	// temperature over the respective thermal cycle, for heat-map
	// rendering.
	BaselineMaxTemps []float64
	MigratedMaxTemps []float64
}

// Run evaluates one scheme. The workload decodes BlocksPerPeriod blocks at
// each placement of the scheme's orbit, then migrates; the per-leg power
// maps (decode energy plus, unless excluded, migration energy) drive the
// thermal model to its quasi-steady cycle, which is compared against the
// static placement's steady state.
//
// Run is Characterize followed by Evaluate. Sweeps that vary only the
// period or the energy ablation should call the stages directly and reuse
// one characterization — the NoC simulation dominates and is identical
// across those variants.
func (s *System) Run(cfg RunConfig) (RunResult, error) {
	// Fail fast on a bad period before paying for characterization; the
	// stages own the rest of the validation.
	if cfg.BlocksPerPeriod < 0 {
		return RunResult{}, fmt.Errorf("core: BlocksPerPeriod %d < 1", cfg.BlocksPerPeriod)
	}
	ch, err := s.Characterize(cfg.Scheme)
	if err != nil {
		return RunResult{}, err
	}
	return s.Evaluate(ch, EvalConfig{
		BlocksPerPeriod:        cfg.BlocksPerPeriod,
		ExcludeMigrationEnergy: cfg.ExcludeMigrationEnergy,
		CycleOpts:              cfg.CycleOpts,
	})
}

func withLeak(opts thermal.CycleOptions, leak power.Leakage) thermal.CycleOptions {
	if opts.Leak == nil {
		opts.Leak = leak.Into
	}
	return opts
}
