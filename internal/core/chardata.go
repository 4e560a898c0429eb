package core

import (
	"fmt"
	"math"
)

// Data returns the characterization itself, which is already plain data.
// It survives only for bench/layers.go's evaluate probe, until a change
// to the benchmark moves that probe.
func (ch *Characterization) Data() *Characterization { return ch }

// Validate checks the characterization's internal consistency for an
// n-block chip. It is the gate a deserialized (possibly corrupt or stale)
// cache entry must pass before the sweep layer will evaluate it.
func (ch *Characterization) Validate(n int) error {
	if ch.SchemeName == "" {
		return fmt.Errorf("core: characterization data has no scheme name")
	}
	if len(ch.Legs) == 0 {
		return fmt.Errorf("core: characterization data has no legs")
	}
	if ch.BaselineCycles <= 0 {
		return fmt.Errorf("core: non-positive baseline cycles %d", ch.BaselineCycles)
	}
	if len(ch.BaselineBlockJ) != n {
		return fmt.Errorf("core: baseline energies cover %d blocks, want %d",
			len(ch.BaselineBlockJ), n)
	}
	if !validEnergies(ch.BaselineBlockJ...) {
		return fmt.Errorf("core: baseline has a NaN, infinite or negative energy")
	}
	for i, la := range ch.Legs {
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

// FromData checks that ch was produced by scheme and returns it unchanged.
// Like Data, it survives only for bench/layers.go's evaluate probe; a
// characterization needs no reconstruction to be evaluated.
func FromData(scheme Scheme, ch *Characterization) (*Characterization, error) {
	if ch == nil {
		return nil, fmt.Errorf("core: nil characterization data")
	}
	if scheme.StepFn == nil {
		return nil, fmt.Errorf("core: no migration scheme configured")
	}
	if scheme.Name != ch.SchemeName {
		return nil, fmt.Errorf("core: characterization data is for scheme %q, not %q",
			ch.SchemeName, scheme.Name)
	}
	return ch, nil
}
