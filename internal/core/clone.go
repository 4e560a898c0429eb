package core

import (
	"hotnoc/internal/appmap"
	"hotnoc/internal/noc"
)

// Clone returns an independent, ready-to-run copy of the system in its
// initial (pre-migration) state. The clone gets its own network, engine
// and migrator — everything a run mutates — while sharing the read-only
// calibration products: the thermal network, energy and leakage tables,
// code, partition and placement. Cloning is how a concurrent sweep turns
// one calibrated Built into per-worker systems without repeating
// placement annealing or energy calibration; a clone's runs are bitwise
// identical to the original's.
func (s *System) Clone() (*System, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	net, err := noc.New(s.Grid, s.Engine.Net.Cfg)
	if err != nil {
		return nil, err
	}
	eng, err := appmap.NewEngine(s.Engine.Code, s.Engine.Part, net)
	if err != nil {
		return nil, err
	}
	eng.MaxIter = s.Engine.MaxIter
	eng.MsgsPerFlit = s.Engine.MsgsPerFlit
	eng.CyclesPerOp = s.Engine.CyclesPerOp
	eng.PhaseOverhead = s.Engine.PhaseOverhead

	mig := NewMigrator(net)
	mig.StateFlits = s.Migrator.StateFlits
	mig.PhaseSyncCycles = s.Migrator.PhaseSyncCycles
	mig.DrainTimeout = s.Migrator.DrainTimeout

	return &System{
		Grid:         s.Grid,
		Therm:        s.Therm,
		Energy:       s.Energy,
		Leak:         s.Leak,
		ClockHz:      s.ClockHz,
		Engine:       eng,
		Migrator:     mig,
		InitialPlace: append([]int(nil), s.InitialPlace...),
		IdleFrac:     s.IdleFrac,
	}, nil
}
