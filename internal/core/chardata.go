package core

import (
	"fmt"
	"math"

	"hotnoc/internal/thermal"
)

// CharData is the serializable payload of a Characterization: everything
// the NoC stage measured, and nothing tied to a live System. It exists so
// characterizations can cross process boundaries — the sweep layer keys
// them by (configuration, scheme, scale) and persists them under a cache
// directory, letting a warm restart skip the cycle-accurate NoC stage
// entirely. All fields are plain data (gob- and JSON-encodable); float64
// values survive a gob round trip bit-exactly, so evaluations of a
// restored characterization are bitwise identical to evaluations of the
// original.
type CharData struct {
	// SchemeName records which scheme produced the orbit, so a restore
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

// Data snapshots the characterization as plain data. The snapshot shares
// the characterization's slices; both sides treat them as immutable.
func (ch *Characterization) Data() *CharData {
	return &CharData{
		SchemeName:     ch.Scheme.Name,
		BaselineCycles: ch.BaselineCycles,
		BaselineBlockJ: ch.BaselineBlockJ,
		Legs:           ch.Legs,
	}
}

// Validate checks the snapshot's internal consistency for an n-block chip.
// It is the gate a deserialized (possibly corrupt or stale) cache entry
// must pass before the sweep layer will evaluate it.
func (d *CharData) Validate(n int) error {
	if d.SchemeName == "" {
		return fmt.Errorf("core: characterization data has no scheme name")
	}
	if len(d.Legs) == 0 {
		return fmt.Errorf("core: characterization data has no legs")
	}
	if d.BaselineCycles <= 0 {
		return fmt.Errorf("core: non-positive baseline cycles %d", d.BaselineCycles)
	}
	if len(d.BaselineBlockJ) != n {
		return fmt.Errorf("core: baseline energies cover %d blocks, want %d",
			len(d.BaselineBlockJ), n)
	}
	if !validEnergies(d.BaselineBlockJ...) {
		return fmt.Errorf("core: baseline has a NaN, infinite or negative energy")
	}
	for i, la := range d.Legs {
		if la.DecodeCycles <= 0 || la.Migration.Cycles <= 0 {
			return fmt.Errorf("core: leg %d has non-positive cycle counts", i)
		}
		if la.Migration.Transfers < 0 || la.Migration.StateFlitsMoved < 0 {
			return fmt.Errorf("core: leg %d has negative migration counts", i)
		}
		if len(la.DecodeBlockJ) != n || len(la.MigBlockJ) != n {
			return fmt.Errorf("core: leg %d energies cover %d/%d blocks, want %d",
				i, len(la.DecodeBlockJ), len(la.MigBlockJ), n)
		}
		if !validEnergies(la.DecodeBlockJ...) || !validEnergies(la.MigBlockJ...) ||
			!validEnergies(la.DecodeJ, la.MigJ) {
			return fmt.Errorf("core: leg %d has a NaN, infinite or negative energy", i)
		}
	}
	return nil
}

// validEnergies reports whether every energy is finite and non-negative;
// anything else evaluates into NaN or meaningless temperatures.
func validEnergies(js ...float64) bool {
	for _, j := range js {
		if !(j >= 0 && j <= math.MaxFloat64) { // false for NaN too
			return false
		}
	}
	return true
}

// FromData reconstructs an evaluable Characterization from a snapshot.
// The scheme must match the one that produced the data (step functions
// cannot be serialized, so the caller supplies the live scheme). The
// reconstruction gets a fresh baseline cache: like any Characterization
// it must not be evaluated from multiple goroutines, but many goroutines
// may each reconstruct their own view of one shared snapshot.
func FromData(scheme Scheme, d *CharData) (*Characterization, error) {
	if d == nil {
		return nil, fmt.Errorf("core: nil characterization data")
	}
	if scheme.StepFn == nil {
		return nil, fmt.Errorf("core: no migration scheme configured")
	}
	if scheme.Name != d.SchemeName {
		return nil, fmt.Errorf("core: characterization data is for scheme %q, not %q",
			d.SchemeName, scheme.Name)
	}
	return &Characterization{
		Scheme:         scheme,
		BaselineCycles: d.BaselineCycles,
		BaselineBlockJ: d.BaselineBlockJ,
		Legs:           d.Legs,
		baseCache:      map[baselineKey]thermal.CycleResult{},
	}, nil
}
