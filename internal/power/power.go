// Package power converts switching activity into per-block power maps, the
// role Synopsys Power Compiler plays in the paper's flow. Dynamic energy is
// activity-based — every router buffer access, crossbar traversal, link
// traversal, arbitration and decoder operation charges a fixed per-event
// energy from a 160 nm standard-cell table — and leakage follows the usual
// exponential temperature dependence, closing the electrothermal loop with
// the thermal package.
package power

import (
	"fmt"
	"math"
)

// Energy is the per-event energy table in joules. Values are
// order-of-magnitude figures for a 160 nm process with 64-bit flits
// (Orion-class router models); the experiment harness calibrates the
// overall scale against the paper's base peak temperatures, so only the
// ratios between entries shape the results.
type Energy struct {
	// BufWriteJ and BufReadJ charge each flit buffer access in a router.
	BufWriteJ float64
	BufReadJ  float64
	// XbarJ charges each flit crossbar traversal.
	XbarJ float64
	// ArbJ charges each switch-allocation decision.
	ArbJ float64
	// LinkJ charges each flit traversal of one inter-router link.
	LinkJ float64
	// PEOpJ charges each decoder edge-message computation (its share of a
	// variable- or check-node update: compare/select trees, adders and
	// register file accesses in a synthesized 160 nm min-sum datapath).
	// Decoder computation dominates chip power, as in the paper's chips
	// where thermal differences stem from "the amount of computation
	// mapped to a single PE".
	PEOpJ float64
	// ConvJ charges each word passed through the migration conversion
	// unit while re-targeting configuration state (§2.1).
	ConvJ float64
}

// Default160nm returns the energy table used by all experiments.
func Default160nm() Energy {
	return Energy{
		BufWriteJ: 52e-12,
		BufReadJ:  44e-12,
		XbarJ:     65e-12,
		ArbJ:      6e-12,
		LinkJ:     42e-12,
		PEOpJ:     780e-12,
		ConvJ:     18e-12,
	}
}

// Validate reports the first non-positive entry.
func (e Energy) Validate() error {
	entries := []struct {
		name string
		v    float64
	}{
		{"BufWriteJ", e.BufWriteJ}, {"BufReadJ", e.BufReadJ}, {"XbarJ", e.XbarJ},
		{"ArbJ", e.ArbJ}, {"LinkJ", e.LinkJ}, {"PEOpJ", e.PEOpJ}, {"ConvJ", e.ConvJ},
	}
	for _, en := range entries {
		if en.v <= 0 {
			return fmt.Errorf("power: energy entry %s must be positive, got %g", en.name, en.v)
		}
	}
	return nil
}

// Scale returns the table with every entry multiplied by f — the
// calibration knob that maps activity onto the paper's base temperatures.
func (e Energy) Scale(f float64) Energy {
	return Energy{
		BufWriteJ: e.BufWriteJ * f,
		BufReadJ:  e.BufReadJ * f,
		XbarJ:     e.XbarJ * f,
		ArbJ:      e.ArbJ * f,
		LinkJ:     e.LinkJ * f,
		PEOpJ:     e.PEOpJ * f,
		ConvJ:     e.ConvJ * f,
	}
}

// Activity accumulates per-block event counts over a simulation window.
// Block i aggregates the router at grid index i together with its local PE:
// in the paper's chips each functional unit contains both.
type Activity struct {
	BufWrites []uint64
	BufReads  []uint64
	Xbar      []uint64
	Arb       []uint64
	Link      []uint64
	PEOps     []uint64
	ConvWords []uint64
}

// NewActivity returns zeroed counters for n blocks, all seven slices
// windows of one allocation.
func NewActivity(n int) *Activity {
	c := make([]uint64, 7*n)
	return &Activity{
		BufWrites: c[0*n : 1*n : 1*n],
		BufReads:  c[1*n : 2*n : 2*n],
		Xbar:      c[2*n : 3*n : 3*n],
		Arb:       c[3*n : 4*n : 4*n],
		Link:      c[4*n : 5*n : 5*n],
		PEOps:     c[5*n : 6*n : 6*n],
		ConvWords: c[6*n : 7*n],
	}
}

// N returns the number of blocks.
func (a *Activity) N() int { return len(a.BufWrites) }

// Reset zeroes all counters.
//
//hotnoc:noalloc
func (a *Activity) Reset() {
	clear(a.BufWrites)
	clear(a.BufReads)
	clear(a.Xbar)
	clear(a.Arb)
	clear(a.Link)
	clear(a.PEOps)
	clear(a.ConvWords)
}

// BlockEnergyJ returns the dynamic energy dissipated in block i. Each
// product is written float64(a*b), which forbids fusing it into the sum,
// so the energy rounds the same on every GOARCH.
func (a *Activity) BlockEnergyJ(e Energy, i int) float64 {
	return float64(float64(a.BufWrites[i])*e.BufWriteJ) +
		float64(float64(a.BufReads[i])*e.BufReadJ) +
		float64(float64(a.Xbar[i])*e.XbarJ) +
		float64(float64(a.Arb[i])*e.ArbJ) +
		float64(float64(a.Link[i])*e.LinkJ) +
		float64(float64(a.PEOps[i])*e.PEOpJ) +
		float64(float64(a.ConvWords[i])*e.ConvJ)
}

// PowerMap converts the window's activity into per-block average power
// (watts) over a window of the given duration.
func (a *Activity) PowerMap(e Energy, windowSec float64) []float64 {
	if windowSec <= 0 {
		panic(fmt.Sprintf("power: non-positive window %g", windowSec))
	}
	out := make([]float64, a.N())
	for i := range out {
		out[i] = a.BlockEnergyJ(e, i) / windowSec
	}
	return out
}

// Leakage models per-block static power with the standard exponential
// temperature dependence P = P0 · exp(Beta · (T - TRefC)).
type Leakage struct {
	// P0W is the per-block leakage at the reference temperature.
	P0W float64
	// BetaPerC is the exponential sensitivity (≈ 0.01-0.03 /°C at 160 nm).
	BetaPerC float64
	// TRefC is the reference temperature.
	TRefC float64
}

// DefaultLeakage returns the 160 nm leakage model. Leakage at this node is
// a small fraction of dynamic power; it matters here because migration
// energy raises average temperature, which raises leakage in turn (the
// mechanism behind rotation's +0.3 °C penalty in the paper).
func DefaultLeakage() Leakage {
	return Leakage{P0W: 0.012, BetaPerC: 0.018, TRefC: 40}
}

// At returns the leakage power of one block at temperature tC.
func (l Leakage) At(tC float64) float64 {
	return l.P0W * math.Exp(l.BetaPerC*(tC-l.TRefC))
}

// Into writes the per-block leakage power map for the given die
// temperatures into dst. The method value l.Into satisfies the thermal
// package's allocation-free schedule hook (thermal.CycleOptions.Leak).
//
//hotnoc:noalloc
func (l Leakage) Into(dst, dieTemps []float64) {
	if len(dst) != len(dieTemps) {
		panic(fmt.Sprintf("power: leakage buffer has %d entries for %d blocks",
			len(dst), len(dieTemps)))
	}
	for i, t := range dieTemps {
		dst[i] = l.P0W * math.Exp(l.BetaPerC*(t-l.TRefC))
	}
}

// Total returns the sum of a power map in watts.
func Total(m []float64) float64 {
	s := 0.0
	for _, v := range m {
		s += v
	}
	return s
}

// PermuteInto writes the power map re-indexed so that entry out[dst[i]]
// receives m[i] — the power map seen by the chip after the workload at
// block i migrates to block dst[i]. dst must be a bijection onto out's
// indices (it always is for a placement), so every entry of out is
// written.
//
//hotnoc:noalloc
func PermuteInto(out, m []float64, dst []int) {
	if len(m) != len(dst) {
		panic(fmt.Sprintf("power: permuting %d-block map with %d-entry permutation",
			len(m), len(dst)))
	}
	if len(out) != len(m) {
		panic(fmt.Sprintf("power: permuting %d-block map into %d-entry buffer",
			len(m), len(out)))
	}
	for i, d := range dst {
		out[d] = m[i]
	}
}
