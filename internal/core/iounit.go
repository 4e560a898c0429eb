package core

import "hotnoc/internal/geom"

// IOTranslator is the migration unit at the chip's I/O interface (§2.3):
// it transforms the destination address of every packet entering the chip
// and the source address of every packet leaving it, so that the external
// world keeps addressing PEs by their original (logical) coordinates no
// matter how many migrations have occurred. The unit maintains only the
// cumulative transform and its inverse; both update in O(1) per migration
// by transform composition. It models §2.3 on its own: the simulated
// workload routes no chip I/O packets, so no System carries a translator.
type IOTranslator struct {
	grid geom.Grid
	// cum maps logical (external) coordinates to current physical ones.
	cum geom.Transform
	// inv maps physical coordinates back to logical ones.
	inv geom.Transform
	// migrations counts Advance calls, for reporting.
	migrations int
}

// NewIOTranslator returns a translator in the pre-migration state
// (identity mapping).
func NewIOTranslator(g geom.Grid) *IOTranslator {
	return &IOTranslator{grid: g, cum: geom.Identity(), inv: geom.Identity()}
}

// Advance composes one migration step into the cumulative transform.
// Call it exactly once per executed migration, with the same transform the
// migration applied to the plane.
func (t *IOTranslator) Advance(step geom.Transform) {
	t.cum = t.cum.Compose(step)
	t.inv = t.cum.Inverse(t.grid)
	t.migrations++
}

// InboundDst rewrites the destination of a packet entering the chip: the
// outside world addressed the logical PE at external; the workload now
// lives at the returned physical coordinate.
func (t *IOTranslator) InboundDst(external geom.Coord) geom.Coord {
	return t.cum.Apply(t.grid, external)
}

// OutboundSrc rewrites the source of a packet leaving the chip: the
// workload physically at internal appears to the outside world under its
// original logical coordinate.
func (t *IOTranslator) OutboundSrc(internal geom.Coord) geom.Coord {
	return t.inv.Apply(t.grid, internal)
}

// Migrations returns the number of migrations translated so far.
func (t *IOTranslator) Migrations() int { return t.migrations }

// Cumulative returns the current logical-to-physical transform.
func (t *IOTranslator) Cumulative() geom.Transform { return t.cum }
