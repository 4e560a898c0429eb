package core

import (
	"fmt"

	"hotnoc/internal/geom"
	"hotnoc/internal/noc"
)

// stateBlob is the payload of a state-transfer packet: the converted
// configuration and state of one PE (opaque to the network).
type stateBlob struct {
	SrcBlock int
}

// Migrator executes migrations on the cycle-accurate network: it drains
// in-flight workload traffic, then moves every PE's configuration and
// state to its destination in congestion-free phases, charging conversion
// energy at the sources and normal network energy along the routes.
//
// Migrators Forked from one another share a migration memo: a migration
// that starts on a drained network and repeats one any of them has
// simulated, with the same parameters and permutation, is replayed from
// it. A Migrator made neither by NewMigrator nor by Fork has no memo and
// steps every migration.
type Migrator struct {
	Net *noc.Network
	// StateFlits is the worm length of one PE's configuration + state
	// (default 512 flits ≈ 4 KB at 64-bit flits: decoder configuration,
	// channel LLRs and in-flight messages).
	StateFlits int
	// PhaseSyncCycles models the barrier between phases (halt/commit
	// handshake; default 32 cycles).
	PhaseSyncCycles int
	// DrainTimeout bounds the pre-migration drain (default 1e6 cycles).
	DrainTimeout int64

	// Migrations counts completed Execute calls, simulated or replayed
	// from the migration memo, and SimulatedMigrations those that stepped
	// the network. Like noc.Stats.ReplayedCycles both are host-side
	// bookkeeping.
	Migrations          uint64
	SimulatedMigrations uint64

	// memo is shared by every Migrator Forked from this one, and key is
	// the scratch its keys are built in.
	memo *migrationMemo
	key  []byte
	// packets is the scratch of one phase's state transfers; a phase
	// ends only after all of them are delivered, so the next may
	// overwrite them.
	packets []noc.Packet
}

// NewMigrator returns a migrator with default parameters and a migration
// memo of its own.
func NewMigrator(net *noc.Network) *Migrator {
	return &Migrator{Net: net, StateFlits: 512, PhaseSyncCycles: 32, DrainTimeout: 1_000_000,
		memo: &migrationMemo{}}
}

// Fork returns a migrator on net with m's parameters. It shares m's
// migration memo, so a migration either has simulated is replayed on the
// other; net must be a network of its own.
func (m *Migrator) Fork(net *noc.Network) *Migrator {
	return &Migrator{Net: net, StateFlits: m.StateFlits, PhaseSyncCycles: m.PhaseSyncCycles,
		DrainTimeout: m.DrainTimeout, memo: m.memo}
}

// MigrationStats reports one executed migration.
type MigrationStats struct {
	// Cycles is the total wall-clock cost in clock cycles, from halt to
	// resume: drain + per-phase transfers + inter-phase synchronization.
	Cycles int64
	// Phases is the number of congestion-free phases used.
	Phases int
	// Transfers is the number of PEs that moved (fixed points excluded).
	Transfers int
	// StateFlitsMoved is the total state traffic in flits.
	StateFlitsMoved int64
}

// Execute performs the migration described by perm. The caller updates the
// application placement and I/O translator afterwards; Execute only moves
// state and accounts for time and energy. A migration that starts on a
// drained network and repeats one in the migration memo is replayed from
// it, with the same outcome as stepping it.
func (m *Migrator) Execute(perm geom.Perm) (MigrationStats, error) {
	if m.StateFlits < 1 {
		return MigrationStats{}, fmt.Errorf("core: StateFlits %d < 1", m.StateFlits)
	}
	ent, owner := m.lookupMemo(perm)
	if ent != nil && !owner && m.replay(ent) {
		m.Migrations++
		return ent.Val.stats, nil
	}
	var stats MigrationStats
	var err error
	if owner {
		stats, err = m.record(ent, perm)
	} else {
		stats, err = m.execute(perm)
	}
	if err != nil {
		return stats, err
	}
	m.Migrations++
	m.SimulatedMigrations++
	return stats, nil
}

// execute steps one migration on the network.
func (m *Migrator) execute(perm geom.Perm) (MigrationStats, error) {
	start := m.Net.Cycle

	// Halt and drain: workload packets still in the network complete
	// before state moves, guaranteeing the state transfer sees an idle
	// fabric (the precondition for the congestion-free phase plan).
	if _, err := m.Net.Drain(m.DrainTimeout); err != nil {
		return MigrationStats{}, fmt.Errorf("core: pre-migration drain: %w", err)
	}

	phases := PlanPhases(m.Net.Grid, perm)
	stats := MigrationStats{Phases: len(phases)}

	prevDeliver := m.Net.Deliver
	defer func() { m.Net.Deliver = prevDeliver }()
	pending := 0
	m.Net.Deliver = func(pkt *noc.Packet) {
		if _, ok := pkt.Payload.(stateBlob); ok {
			pending--
			return
		}
		if prevDeliver != nil {
			prevDeliver(pkt)
		}
	}

	for pi, ph := range phases {
		pending = 0
		if len(m.packets) < len(ph) {
			m.packets = make([]noc.Packet, len(ph))
		}
		for i, tr := range ph {
			pkt := &m.packets[i]
			*pkt = noc.Packet{
				ID:      m.Net.NextID(),
				Src:     m.Net.Grid.Coord(tr.Src),
				Dst:     m.Net.Grid.Coord(tr.Dst),
				NFlits:  m.StateFlits,
				Payload: stateBlob{SrcBlock: tr.Src},
			}
			if err := m.Net.Send(pkt); err != nil {
				return stats, fmt.Errorf("core: phase %d transfer %d->%d: %w", pi, tr.Src, tr.Dst, err)
			}
			// The conversion unit rewrites every state word as it leaves
			// the source PE (§2.1).
			m.Net.Act.ConvWords[tr.Src] += uint64(m.StateFlits)
			pending++
			stats.Transfers++
			stats.StateFlitsMoved += int64(m.StateFlits)
		}
		guard := m.Net.Cycle + m.DrainTimeout
		for pending > 0 {
			m.Net.Step()
			if m.Net.Cycle > guard {
				return stats, fmt.Errorf("core: phase %d stalled", pi)
			}
		}
		// Inter-phase barrier: commit handshake before the next group.
		m.Net.Run(int64(m.PhaseSyncCycles))
	}

	stats.Cycles = m.Net.Cycle - start
	return stats, nil
}
