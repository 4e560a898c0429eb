package thermal

import (
	"fmt"

	"hotnoc/internal/floorplan"
)

// Params holds the material and package constants of the compact model.
// Defaults follow the HotSpot library's configuration (the paper ran
// HotSpot "with all settings at the default values"), adapted to the
// two-layer (die + spreader) lumped network.
type Params struct {
	// AmbientC is the ambient temperature in °C (paper: 40 °C).
	AmbientC float64

	// KSilicon is the silicon thermal conductivity, W/(m·K).
	KSilicon float64
	// KSpreader is the copper spreader conductivity, W/(m·K).
	KSpreader float64
	// KInterface is the thermal-interface-material conductivity, W/(m·K).
	KInterface float64

	// TDie, TInterface, TSpreader are layer thicknesses in metres.
	TDie       float64
	TInterface float64
	TSpreader  float64

	// CvSilicon and CvSpreader are volumetric heat capacities, J/(m³·K).
	CvSilicon  float64
	CvSpreader float64

	// RConvection is the sink-to-ambient convection resistance, K/W
	// (HotSpot default r_convec = 0.1... scaled for the small test die;
	// see DefaultParams).
	RConvection float64
	// CSink is the lumped heat-sink capacitance, J/K.
	CSink float64
	// RSinkSpread is the extra spreading resistance from each spreader
	// cell into the lumped sink node, K/W per unit cell.
	RSinkSpread float64
	// OverhangWidth is the width of the heat-spreader overhang beyond the
	// die edge, metres. Edge blocks spread laterally into the overhang
	// ring (and from there to the sink), which is what makes the die
	// periphery run cooler than the centre under uniform power.
	OverhangWidth float64
}

// DefaultParams returns the 160 nm test-chip model constants. Conductivity
// and capacity values are the HotSpot defaults (silicon 100 W/mK, copper
// 400 W/mK, TIM 4 W/mK); the convection resistance is chosen for a compact
// embedded heat sink appropriate to the paper's ~70-110 mm² LDPC chips, so
// that calibrated chip power lands in the single-digit-watt range typical
// of 160 nm NoC prototypes.
func DefaultParams() Params {
	return Params{
		AmbientC:      40.0,
		KSilicon:      100.0,
		KSpreader:     400.0,
		KInterface:    4.0,
		TDie:          0.5e-3,
		TInterface:    20e-6,
		TSpreader:     1e-3,
		CvSilicon:     1.75e6,
		CvSpreader:    3.55e6,
		RConvection:   0.45,
		CSink:         140.0,
		RSinkSpread:   3.0,
		OverhangWidth: 10e-3,
	}
}

// Validate reports the first non-physical parameter.
func (p Params) Validate() error {
	checks := []struct {
		name string
		v    float64
	}{
		{"KSilicon", p.KSilicon}, {"KSpreader", p.KSpreader}, {"KInterface", p.KInterface},
		{"TDie", p.TDie}, {"TInterface", p.TInterface}, {"TSpreader", p.TSpreader},
		{"CvSilicon", p.CvSilicon}, {"CvSpreader", p.CvSpreader},
		{"RConvection", p.RConvection}, {"CSink", p.CSink},
	}
	for _, c := range checks {
		if c.v <= 0 {
			return fmt.Errorf("thermal: parameter %s must be positive, got %g", c.name, c.v)
		}
	}
	if p.RSinkSpread < 0 {
		return fmt.Errorf("thermal: RSinkSpread must be non-negative, got %g", p.RSinkSpread)
	}
	if p.OverhangWidth < 0 {
		return fmt.Errorf("thermal: OverhangWidth must be non-negative, got %g", p.OverhangWidth)
	}
	return nil
}

// Network is the assembled RC model of one floorplan. Node indexing:
// 0..n-1 are die nodes (one per block, row-major), n..2n-1 the matching
// spreader nodes, and node 2n is the lumped heat sink. Ambient is the
// boundary condition, not a node.
type Network struct {
	FP     *floorplan.Floorplan
	Par    Params
	NDie   int
	NNodes int

	// G is the conductance (inverse-resistance) matrix of nodal analysis:
	// G·T = P + B, with B carrying the ambient boundary inflow.
	G *Dense
	// C holds the per-node thermal capacitances (diagonal matrix).
	C []float64
	// B is the constant boundary vector (ambient coupling).
	B []float64

	// bandPerm interleaves die/spreader pairs (die i ↦ 2i, spreader
	// i ↦ 2i+1; sink ↦ -1, it is the dense border) so that G and every
	// C/dt + G become banded with half bandwidth ~2·gridwidth. Computed
	// once at assembly and read-only afterwards, so concurrent solvers can
	// share the network.
	bandPerm []int
}

// NewNetwork assembles the RC network for a floorplan.
func NewNetwork(fp *floorplan.Floorplan, par Params) (*Network, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	if err := fp.Validate(); err != nil {
		return nil, err
	}
	n := fp.N()
	nw := &Network{
		FP:     fp,
		Par:    par,
		NDie:   n,
		NNodes: 2*n + 1,
	}
	nw.G = NewDense(nw.NNodes)
	nw.C = make([]float64, nw.NNodes)
	nw.B = make([]float64, nw.NNodes)

	sink := 2 * n

	// Capacitances: half the die layer mass lumps on the die node and the
	// spreader cell mass on the spreader node; the sink is one big lump.
	for i, b := range fp.Blocks {
		nw.C[i] = par.CvSilicon * b.Area() * par.TDie
		nw.C[n+i] = par.CvSpreader * b.Area() * par.TSpreader
	}
	nw.C[sink] = par.CSink

	// Lateral conductances inside the die and spreader layers. Centroid
	// distance over conductivity times the shared cross-section, as in
	// HotSpot's grid model.
	for _, a := range fp.Adjacencies() {
		ba, bb := fp.Blocks[a.A], fp.Blocks[a.B]
		var dist float64
		if a.Horizontal {
			dist = (ba.W + bb.W) / 2
		} else {
			dist = (ba.H + bb.H) / 2
		}
		gDie := par.KSilicon * a.SharedLen * par.TDie / dist
		gSpr := par.KSpreader * a.SharedLen * par.TSpreader / dist
		nw.stamp(a.A, a.B, gDie)
		nw.stamp(n+a.A, n+a.B, gSpr)
	}

	// Vertical path per block: die node -> (half die + TIM + half
	// spreader) -> spreader node -> (half spreader + sink spreading) ->
	// sink node.
	for i, b := range fp.Blocks {
		area := b.Area()
		rDieHalf := (par.TDie / 2) / (par.KSilicon * area)
		rTIM := par.TInterface / (par.KInterface * area)
		rSprHalf := (par.TSpreader / 2) / (par.KSpreader * area)
		nw.stamp(i, n+i, 1/(rDieHalf+rTIM+rSprHalf))
		nw.stamp(n+i, sink, 1/(rSprHalf+par.RSinkSpread))
	}

	// Spreader overhang: edge cells spread laterally into the copper ring
	// beyond the die and from there into the sink. Without this path every
	// block would have an identical route to ambient and uniform power
	// would produce a flat (physically wrong) die profile.
	if par.OverhangWidth > 0 {
		for i, b := range fp.Blocks {
			exposed := 0.0
			if b.Cell.X == 0 {
				exposed += b.H
			}
			if b.Cell.X == fp.Grid.W-1 {
				exposed += b.H
			}
			if b.Cell.Y == 0 {
				exposed += b.W
			}
			if b.Cell.Y == fp.Grid.H-1 {
				exposed += b.W
			}
			if exposed == 0 {
				continue
			}
			g := par.KSpreader * par.TSpreader * exposed / (par.OverhangWidth / 2)
			nw.stamp(n+i, sink, g)
		}
	}

	// Sink to ambient: conductance on the diagonal plus boundary inflow.
	gAmb := 1 / par.RConvection
	nw.G.Add(sink, sink, gAmb)
	nw.B[sink] = gAmb * par.AmbientC

	nw.bandPerm = make([]int, nw.NNodes)
	for i := 0; i < n; i++ {
		nw.bandPerm[i] = 2 * i
		nw.bandPerm[n+i] = 2*i + 1
	}
	nw.bandPerm[sink] = -1

	return nw, nil
}

// Sink returns the index of the lumped heat-sink node, the dense border
// row/column of the banded factorisation.
func (nw *Network) Sink() int { return nw.NNodes - 1 }

// BandPerm returns the node ordering under which the network matrices are
// banded (see bandPerm); callers must treat it as read-only.
func (nw *Network) BandPerm() []int { return nw.bandPerm }

// stamp adds a conductance g between nodes i and j.
func (nw *Network) stamp(i, j int, g float64) {
	nw.G.Add(i, i, g)
	nw.G.Add(j, j, g)
	nw.G.Add(i, j, -g)
	nw.G.Add(j, i, -g)
}

// Peak returns the hottest die temperature and its block index.
func Peak(dieTemps []float64) (float64, int) {
	maxT, maxI := dieTemps[0], 0
	for i, t := range dieTemps {
		if t > maxT {
			maxT, maxI = t, i
		}
	}
	return maxT, maxI
}

// Mean returns the average die temperature, the metric behind the paper's
// "+0.3 °C average chip temperature" rotation energy penalty.
func Mean(dieTemps []float64) float64 {
	s := 0.0
	for _, t := range dieTemps {
		s += t
	}
	return s / float64(len(dieTemps))
}
