package core

import "hotnoc/internal/noc"

// Clone returns an independent, ready-to-run copy of the system in its
// initial (pre-migration) state. The clone gets its own network, engine
// and migrator — everything Characterize mutates — while sharing the
// read-only calibration products: the thermal network, energy and leakage
// tables, code, partition and placement. Its engine also shares the
// build's decode memo (appmap.Engine.Fork) and its migrator the build's
// migration memo (Migrator.Fork), so a decode or migration any clone of
// the build has simulated is replayed, not simulated again. Cloning is how
// a concurrent sweep gives each characterization a simulator of its own
// without repeating placement annealing, energy calibration, repeated
// decodes or repeated migrations; evaluation needs no clone. A clone's
// runs are bitwise identical to the original's.
func (s *System) Clone() (*System, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	net, err := noc.New(s.Grid, s.Engine.Net.Cfg)
	if err != nil {
		return nil, err
	}
	eng, err := s.Engine.Fork(net)
	if err != nil {
		return nil, err
	}

	return &System{
		Grid:         s.Grid,
		Therm:        s.Therm,
		Energy:       s.Energy,
		Leak:         s.Leak,
		ClockHz:      s.ClockHz,
		Engine:       eng,
		Migrator:     s.Migrator.Fork(net),
		InitialPlace: append([]int(nil), s.InitialPlace...),
		IdleFrac:     s.IdleFrac,
	}, nil
}
