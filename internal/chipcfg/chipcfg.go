// Package chipcfg defines the paper's five test-chip configurations. The
// 4x4 chip is evaluated in two configurations (A, B) and the 5x5 chip in
// three (C, D, E); per the paper, the configurations differ in "the
// irregularity of the communication patterns and the amount of computation
// mapped to a single PE". Here each configuration is an LDPC code plus a
// Tanner-graph partition with its own compute skew and communication
// weighting; every configuration is placed with the thermally-aware
// annealer and its energy table is calibrated so the static placement's
// peak temperature matches the paper's reported base temperature
// (Figure 1: A 85.44 °C, B 84.05 °C, C 75.17 °C, D 72.80 °C, E 75.98 °C)
// at the 40 °C HotSpot ambient.
package chipcfg

import (
	"fmt"
	"math"
	"slices"

	"hotnoc/internal/appmap"
	"hotnoc/internal/core"
	"hotnoc/internal/floorplan"
	"hotnoc/internal/geom"
	"hotnoc/internal/ldpc"
	"hotnoc/internal/noc"
	"hotnoc/internal/place"
	"hotnoc/internal/power"
	"hotnoc/internal/thermal"
)

// Spec declares one test-chip configuration: chip, code, partition,
// placement, decoder and migration parameters. It has no channel or
// workload-data parameters: the simulated decoder's traffic, and so every
// cycle and activity count, does not depend on the decoded bits.
type Spec struct {
	// Name is the paper's configuration letter.
	Name string
	// GridN is the mesh dimension (4 or 5).
	GridN int
	// BasePeakC is the paper's static-placement peak temperature the
	// energy calibration targets.
	BasePeakC float64

	// Code geometry.
	CodeN, CodeM, ColWeight int
	CodeSeed                int64

	// Partition skew: HeavyPEs logical PEs receive HeavyShare of the
	// check nodes and VarShare of the variable nodes ("amount of
	// computation mapped to a single PE").
	HeavyPEs   int
	HeavyShare float64
	VarShare   float64
	PartSeed   int64

	// CommWeight is the placement's communication-versus-temperature
	// trade-off; a high weight pulls heavily-communicating PEs toward the
	// die centre (configuration E's central hotspots).
	CommWeight float64
	// IOWeight anchors variable-heavy PEs near the chip's I/O interface
	// (LLR streaming); a high weight produces the banded, off-centre hot
	// structures of the 4x4 configurations.
	IOWeight float64
	// IOAtCorner places the I/O interface at the south-west corner pad
	// ring instead of the south edge centre.
	IOAtCorner bool
	PlaceSeed  int64
	PlaceIters int
	// PlaceRestarts runs that many independently-seeded annealing searches
	// and keeps the deterministic best (see place.Options.Restarts). Zero
	// or one keeps the single-seed search the paper configurations use,
	// preserving their placements bit for bit.
	PlaceRestarts int

	// MaxIter is the decoder's fixed iteration count per block.
	MaxIter int

	// StateFlits is the per-PE configuration+state transferred at each
	// migration (block-boundary migrations keep it small, §3).
	StateFlits int
}

// Specs returns the five paper configurations, scaled so one block decode
// lands near the paper's 109.3 µs base migration period at the 250 MHz
// NoC clock. The slice is the caller's own copy.
func Specs() []Spec { return slices.Clone(specs[:]) }

// specs is the one table Specs and ByName read.
var specs = [...]Spec{
	{
		Name: "A", GridN: 4, BasePeakC: 85.44,
		CodeN: 2560, CodeM: 1280, ColWeight: 3, CodeSeed: 1001,
		HeavyPEs: 4, HeavyShare: 0.55, VarShare: 0.50, PartSeed: 2001,
		CommWeight: 1.2e-3, IOWeight: 3.0e-3, IOAtCorner: true, PlaceSeed: 3001, PlaceIters: 20000,
		MaxIter: 16, StateFlits: 128,
	},
	{
		Name: "B", GridN: 4, BasePeakC: 84.05,
		CodeN: 2560, CodeM: 1280, ColWeight: 3, CodeSeed: 1002,
		HeavyPEs: 3, HeavyShare: 0.45, VarShare: 0.40, PartSeed: 2002,
		CommWeight: 0.8e-3, IOWeight: 2.5e-3, IOAtCorner: true, PlaceSeed: 3002, PlaceIters: 20000,
		MaxIter: 16, StateFlits: 128,
	},
	{
		Name: "C", GridN: 5, BasePeakC: 75.17,
		CodeN: 4000, CodeM: 2000, ColWeight: 3, CodeSeed: 1003,
		HeavyPEs: 5, HeavyShare: 0.40, VarShare: 0.35, PartSeed: 2003,
		CommWeight: 0.8e-3, IOWeight: 3.0e-3, PlaceSeed: 3003, PlaceIters: 25000,
		MaxIter: 16, StateFlits: 128,
	},
	{
		Name: "D", GridN: 5, BasePeakC: 72.80,
		CodeN: 4000, CodeM: 2000, ColWeight: 3, CodeSeed: 1004,
		HeavyPEs: 6, HeavyShare: 0.45, VarShare: 0.35, PartSeed: 2004,
		CommWeight: 0.8e-3, IOWeight: 2.5e-3, PlaceSeed: 3004, PlaceIters: 25000,
		MaxIter: 16, StateFlits: 128,
	},
	{
		Name: "E", GridN: 5, BasePeakC: 75.98,
		CodeN: 4000, CodeM: 2000, ColWeight: 3, CodeSeed: 1005,
		HeavyPEs: 4, HeavyShare: 0.50, VarShare: 0.40, PartSeed: 2005,
		CommWeight: 8e-3, IOWeight: 0, PlaceSeed: 3005, PlaceIters: 25000,
		MaxIter: 16, StateFlits: 128,
	},
}

// ByName returns the configuration with the given letter.
func ByName(name string) (Spec, error) {
	for i := range specs {
		if specs[i].Name == name {
			return specs[i], nil
		}
	}
	return Spec{}, fmt.Errorf("chipcfg: unknown configuration %q (want A..E)", name)
}

// Scaled returns a copy with the code size and annealing effort divided by
// f (minimum sizes preserved) — used by tests to keep full-pipeline runs
// fast while preserving every code path.
func (s Spec) Scaled(f int) Spec {
	if f <= 1 {
		return s
	}
	out := s
	out.CodeN = max(s.GridN*s.GridN*10, s.CodeN/f)
	out.CodeM = max(s.GridN*s.GridN*5, s.CodeM/f)
	out.MaxIter = max(4, s.MaxIter/f)
	out.PlaceIters = max(2000, s.PlaceIters/f)
	// Blocks shrink with the code, so the migrated state must shrink too
	// or migration overhead would dwarf the reduced workload.
	out.StateFlits = max(8, s.StateFlits/f)
	return out
}

// ioCoord returns the mesh position adjacent to the chip's I/O pads.
func (s Spec) ioCoord(g geom.Grid) geom.Coord {
	if s.IOAtCorner {
		return geom.Coord{X: 0, Y: 0}
	}
	return geom.Coord{X: g.W / 2, Y: 0}
}

// Built is a fully assembled, calibrated system plus its metadata.
type Built struct {
	Spec   Spec
	System *core.System
	// EnergyScale is the calibration factor applied to the 160 nm table.
	EnergyScale float64
	// StaticPeakC is the calibrated static peak (should match BasePeakC).
	StaticPeakC float64
	// BlockCycles is the baseline block decode duration.
	BlockCycles int64
	// PlaceResult is the thermally-aware placement outcome.
	PlaceResult place.Result
}

// BuildData is the serializable product of Build's two expensive stages —
// the simulated-annealing placement and the energy calibration — plus the
// baseline block duration their shared calibration decode measured. Both
// stages are pure functions of the (already scaled) spec, which is what
// makes persisting the snapshot sound: FromData re-runs the cheap
// deterministic assembly and splices these numbers back in, reproducing
// Build's result bit for bit without annealing or calibrating. All fields
// are plain data (gob- and JSON-encodable).
type BuildData struct {
	// Config and GridN identify the spec the snapshot belongs to, so a
	// restore against the wrong configuration fails loudly.
	Config string
	GridN  int
	// Placement maps logical PE -> physical block; PeakC, CommHops, Cost
	// and Accepted echo the annealer's Result so a reconstituted build
	// serves identical placement reports.
	Placement []int
	PeakC     float64
	CommHops  float64
	Cost      float64
	Accepted  int
	// EnergyScale and StaticPeakC are the calibration outcome.
	EnergyScale float64
	StaticPeakC float64
	// BlockCycles is the baseline block decode duration.
	BlockCycles int64
}

// Data snapshots the build's expensive products as plain data. The
// placement is copied; the snapshot has no tie to the live system.
func (b *Built) Data() *BuildData {
	return &BuildData{
		Config:      b.Spec.Name,
		GridN:       b.Spec.GridN,
		Placement:   append([]int(nil), b.PlaceResult.Place...),
		PeakC:       b.PlaceResult.PeakC,
		CommHops:    b.PlaceResult.CommHops,
		Cost:        b.PlaceResult.Cost,
		Accepted:    b.PlaceResult.Accepted,
		EnergyScale: b.EnergyScale,
		StaticPeakC: b.StaticPeakC,
		BlockCycles: b.BlockCycles,
	}
}

// Validate checks a (possibly deserialized, possibly stale) snapshot
// against the spec it claims to reconstitute: right configuration and
// grid, a true placement bijection, a physical calibration result. It is
// the gate a disk cache entry must pass before FromData will trust it.
func (d *BuildData) Validate(s Spec) error {
	if d.Config != s.Name {
		return fmt.Errorf("chipcfg: build data is for configuration %q, not %q", d.Config, s.Name)
	}
	if d.GridN != s.GridN {
		return fmt.Errorf("chipcfg %s: build data is for a %dx%d grid, want %dx%d",
			s.Name, d.GridN, d.GridN, s.GridN, s.GridN)
	}
	n := s.GridN * s.GridN
	if len(d.Placement) != n {
		return fmt.Errorf("chipcfg %s: placement has %d entries for %d PEs",
			s.Name, len(d.Placement), n)
	}
	seen := make([]bool, n)
	for _, b := range d.Placement {
		if b < 0 || b >= n || seen[b] {
			return fmt.Errorf("chipcfg %s: placement is not a bijection", s.Name)
		}
		seen[b] = true
	}
	if !(d.EnergyScale > 0) || math.IsInf(d.EnergyScale, 0) {
		return fmt.Errorf("chipcfg %s: invalid energy scale %g", s.Name, d.EnergyScale)
	}
	// calibrateScale guarantees the static peak lands within 0.05 °C of
	// the spec's target; anything else is a snapshot of a different
	// calibration (or a different thermal model) and must be rebuilt.
	if math.Abs(d.StaticPeakC-s.BasePeakC) > 0.05 {
		return fmt.Errorf("chipcfg %s: calibrated peak %.3f °C does not match target %.3f",
			s.Name, d.StaticPeakC, s.BasePeakC)
	}
	if d.BlockCycles <= 0 {
		return fmt.Errorf("chipcfg %s: non-positive block duration %d cycles", s.Name, d.BlockCycles)
	}
	return nil
}

// Build assembles and calibrates the configuration: deterministic
// assembly, then the simulated-annealing placement and the energy
// calibration — the dominant cold-start cost. Built.Data snapshots the
// expensive products; FromData reconstitutes the build from a snapshot
// without repeating them.
func (s Spec) Build() (*Built, error) {
	return s.build(nil)
}

// FromData reconstitutes a calibrated build from a snapshot: the
// deterministic assembly re-runs, the annealed placement and calibration
// numbers are spliced in, and no annealing, calibration decode or
// bisection happens. The snapshot is revalidated against the spec first,
// so a stale or foreign snapshot is an error, never a miscalibrated
// system. The result is indistinguishable from the Build that produced
// the snapshot: evaluations of either are bitwise identical.
func (s Spec) FromData(d *BuildData) (*Built, error) {
	if d == nil {
		return nil, fmt.Errorf("chipcfg %s: nil build data", s.Name)
	}
	if err := d.Validate(s); err != nil {
		return nil, err
	}
	return s.build(d)
}

// build is the shared assembly path: with a nil snapshot it anneals and
// calibrates (the cold path); with a snapshot it restores those products.
// It assembles on the spec's code, ldpc.NewRegular's, while that code's
// rank check runs beside it.
func (s Spec) build(data *BuildData) (*Built, error) {
	d, err := ldpc.Draw(s.CodeN, s.CodeM, s.ColWeight, s.CodeSeed)
	if err != nil {
		return nil, fmt.Errorf("chipcfg %s: code: %w", s.Name, err)
	}
	return firstFullRank(s.Name, d, func(code *ldpc.Code) (*Built, error) {
		return s.assemble(code, data)
	})
}

// firstFullRank draws d's candidates in turn and runs work on each while
// the candidate's rank check runs beside it, on another goroutine: work
// only reads the code, as CheckRank does. It returns work's result for
// the first full-rank candidate, the code ldpc.NewRegular returns, and
// discards the work done on a rank-deficient one. The rank check has
// ended when firstFullRank returns.
func firstFullRank[T any](name string, d *ldpc.Drawing, work func(*ldpc.Code) (T, error)) (T, error) {
	rank := make(chan error, 1)
	for {
		code, err := d.Next()
		if err != nil {
			var zero T
			return zero, fmt.Errorf("chipcfg %s: code: %w", name, err)
		}
		go func() { rank <- code.CheckRank() }()
		res, err := work(code)
		if <-rank == nil {
			return res, err
		}
	}
}

// assemble builds the configuration on its code.
func (s Spec) assemble(code *ldpc.Code, data *BuildData) (*Built, error) {
	g := geom.NewGrid(s.GridN, s.GridN)

	part, err := appmap.SkewedBoth(code, g.N(), s.HeavyPEs, s.HeavyShare, s.VarShare, s.PartSeed)
	if err != nil {
		return nil, fmt.Errorf("chipcfg %s: partition: %w", s.Name, err)
	}
	net, err := noc.New(g, noc.Config{})
	if err != nil {
		return nil, fmt.Errorf("chipcfg %s: network: %w", s.Name, err)
	}
	eng, err := appmap.NewEngine(code, part, net)
	if err != nil {
		return nil, fmt.Errorf("chipcfg %s: engine: %w", s.Name, err)
	}
	eng.MaxIter = s.MaxIter

	fp := floorplan.NewMesh(g)
	tn, err := thermal.NewNetwork(fp, thermal.DefaultParams())
	if err != nil {
		return nil, fmt.Errorf("chipcfg %s: thermal: %w", s.Name, err)
	}

	baseEnergy := power.Default160nm()
	leak := power.DefaultLeakage()

	var pl place.Result
	if data == nil {
		inf, err := thermal.NewInfluence(tn)
		if err != nil {
			return nil, fmt.Errorf("chipcfg %s: influence: %w", s.Name, err)
		}
		// Thermally-aware placement on the unit-scale compute power
		// profile (the scale cancels out of the argmax).
		ops := appmap.OpsPerPE(code, part)
		pePower := make([]float64, g.N())
		for i, o := range ops {
			pePower[i] = float64(o) * baseEnergy.PEOpJ
		}
		ioTraffic := make([]int64, g.N())
		for v := 0; v < code.N; v++ {
			ioTraffic[part.VarPE[v]]++ // one LLR in and one decision out per variable
		}
		pl, err = place.Anneal(&place.Problem{
			Grid: g, Inf: inf, PEPower: pePower,
			Traffic: appmap.TrafficMatrix(code, part), CommWeight: s.CommWeight,
			IOTraffic: ioTraffic, IOCoord: s.ioCoord(g), IOWeight: s.IOWeight,
		}, place.Options{Seed: s.PlaceSeed, Iters: s.PlaceIters, Restarts: s.PlaceRestarts})
		if err != nil {
			return nil, fmt.Errorf("chipcfg %s: placement: %w", s.Name, err)
		}
	} else {
		pl = place.Result{
			Place:    append([]int(nil), data.Placement...),
			PeakC:    data.PeakC,
			CommHops: data.CommHops,
			Cost:     data.Cost,
			Accepted: data.Accepted,
		}
	}

	if err := eng.SetPlacement(pl.Place); err != nil {
		return nil, fmt.Errorf("chipcfg %s: placement apply: %w", s.Name, err)
	}
	const clockHz = 250e6
	var scale, staticPeak float64
	var blockCycles int64
	if data == nil {
		// Reference activity at the placed configuration for calibration.
		net.ResetStats()
		blockCycles, err = eng.Decode(make([]ldpc.LLR, code.N))
		if err != nil {
			return nil, fmt.Errorf("chipcfg %s: calibration decode: %w", s.Name, err)
		}
		dur := float64(blockCycles) / clockHz
		unitPower := net.Act.PowerMap(baseEnergy, dur)
		scale, staticPeak, err = calibrateScale(tn, unitPower, leak, s.BasePeakC)
		if err != nil {
			return nil, fmt.Errorf("chipcfg %s: calibration: %w", s.Name, err)
		}
	} else {
		// The snapshot carries the calibration outcome; everything the
		// decode fed into it is already folded into these numbers, and
		// everything downstream (Characterize, clones) resets placement
		// and activity statistics itself before measuring.
		scale, staticPeak, blockCycles = data.EnergyScale, data.StaticPeakC, data.BlockCycles
	}

	mig := core.NewMigrator(net)
	mig.StateFlits = s.StateFlits

	sys := &core.System{
		Grid:         g,
		IdleFrac:     0.5,
		Therm:        tn,
		Energy:       baseEnergy.Scale(scale),
		Leak:         leak,
		ClockHz:      clockHz,
		Engine:       eng,
		Migrator:     mig,
		InitialPlace: pl.Place,
	}
	return &Built{
		Spec:        s,
		System:      sys,
		EnergyScale: scale,
		StaticPeakC: staticPeak,
		BlockCycles: blockCycles,
		PlaceResult: pl,
	}, nil
}

// calibrateScale finds the energy-table multiplier at which the static
// power map (plus temperature-dependent leakage, iterated to a fixed
// point) produces exactly the target steady-state peak temperature.
// The leakage-closed peak is strictly increasing in the scale, so
// bisection converges unconditionally within the bracket.
func calibrateScale(tn *thermal.Network, unitPower []float64, leak power.Leakage, targetC float64) (scale, peakC float64, err error) {
	ss, err := thermal.NewSteadySolver(tn)
	if err != nil {
		return 0, 0, err
	}
	temps := make([]float64, len(unitPower))
	next := make([]float64, len(unitPower))
	pm := make([]float64, len(unitPower))
	peakAt := func(s float64) (float64, bool) {
		for i := range temps {
			temps[i] = tn.Par.AmbientC
		}
		for it := 0; it < 200; it++ {
			for i := range pm {
				pm[i] = s*unitPower[i] + leak.At(temps[i])
			}
			ss.SolveInto(next, pm)
			d := 0.0
			for i := range next {
				if dd := math.Abs(next[i] - temps[i]); dd > d {
					d = dd
				}
				if math.IsNaN(next[i]) || math.IsInf(next[i], 0) || next[i] > 400 {
					return 0, false // electrothermal runaway at this scale
				}
			}
			temps, next = next, temps
			if d < 1e-6 {
				break
			}
		}
		p, _ := thermal.Peak(temps)
		return p, true
	}

	lo, hi := 0.0, 1.0
	for {
		p, ok := peakAt(hi)
		if !ok {
			break // runaway: target is certainly below hi
		}
		if p >= targetC {
			break
		}
		lo = hi
		hi *= 2
		if hi > 1e9 {
			return 0, 0, fmt.Errorf("chipcfg: cannot reach %g °C even at scale %g", targetC, hi)
		}
	}
	for it := 0; it < 80; it++ {
		mid := (lo + hi) / 2
		p, ok := peakAt(mid)
		if !ok || p > targetC {
			hi = mid
		} else {
			lo = mid
		}
	}
	scale = (lo + hi) / 2
	peakC, ok := peakAt(scale)
	if !ok {
		return 0, 0, fmt.Errorf("chipcfg: calibration landed in runaway region")
	}
	if math.Abs(peakC-targetC) > 0.05 {
		return 0, 0, fmt.Errorf("chipcfg: calibration reached %.3f °C, target %.3f", peakC, targetC)
	}
	return scale, peakC, nil
}
