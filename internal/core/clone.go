package core

import "hotnoc/internal/noc"

// Clone returns an independent, ready-to-run copy of the system in its
// initial (pre-migration) state. The clone gets its own network, engine
// and migrator — everything Characterize mutates — while sharing the
// read-only calibration products: the thermal network, energy and leakage
// tables, code, partition and placement. Its engine also shares the
// build's decode memo (appmap.Engine.Fork) and its migrator the build's
// migration memo (Migrator.Fork), so a decode or migration any clone of
// the build has simulated is replayed, not simulated again. Cloning (and
// Borrow, which reuses released clones) is how a concurrent sweep gives
// each characterization a simulator of its own without repeating
// placement annealing, energy calibration, repeated decodes or repeated
// migrations; evaluation needs no clone. A clone's runs are bitwise
// identical to the original's.
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

// Borrow lends a characterizing simulator: a System in the state Clone
// returns, taken from s's free list, or cloned when every simulator is
// lent. Hand it back with Release after a run that succeeded; a
// simulator whose run failed is dropped by not releasing it. Results do
// not depend on which simulator a caller gets, but a reused simulator's
// work counters (Engine.Decodes, Migrator.Migrations,
// Net.SteppedCycles and the like) keep counting from where its last run
// left them, so callers count a run's work as their difference.
func (s *System) Borrow() (*System, error) {
	s.mu.Lock()
	if n := len(s.sims); n > 0 {
		sim := s.sims[n-1]
		s.sims[n-1] = nil
		s.sims = s.sims[:n-1]
		s.mu.Unlock()
		return sim, nil
	}
	s.mu.Unlock()
	return s.Clone()
}

// Release returns sim, which Borrow lent, to the state Clone gives it
// and puts it on the free list; one with traffic still in flight is
// dropped instead. The list holds at most as many simulators as were
// ever lent at once.
func (s *System) Release(sim *System) {
	if !s.reset(sim) {
		return
	}
	s.mu.Lock()
	s.sims = append(s.sims, sim)
	s.mu.Unlock()
}

// reset restores what a characterization changes in sim to what Clone
// sets: the network, the engine's placement and recordings, the engine
// and migrator parameters and the initial placement. It reports false,
// changing nothing, when traffic is in flight: a run that left the
// network busy did not finish.
//
//hotnoc:noalloc
func (s *System) reset(sim *System) bool {
	eng, mig := sim.Engine, sim.Migrator
	if eng.Net.Busy() {
		return false
	}
	eng.Net.Reset()
	eng.Reset()
	eng.MaxIter, eng.MsgsPerFlit = s.Engine.MaxIter, s.Engine.MsgsPerFlit
	eng.CyclesPerOp, eng.PhaseOverhead = s.Engine.CyclesPerOp, s.Engine.PhaseOverhead
	mig.StateFlits, mig.PhaseSyncCycles = s.Migrator.StateFlits, s.Migrator.PhaseSyncCycles
	mig.DrainTimeout = s.Migrator.DrainTimeout
	copy(sim.InitialPlace, s.InitialPlace)
	return true
}
