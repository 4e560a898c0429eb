package core

import (
	"math"
	"testing"

	"hotnoc/internal/appmap"
	"hotnoc/internal/floorplan"
	"hotnoc/internal/geom"
	"hotnoc/internal/ldpc"
	"hotnoc/internal/noc"
	"hotnoc/internal/place"
	"hotnoc/internal/power"
	"hotnoc/internal/thermal"
)

// buildSystem assembles a small but complete test chip: a skewed LDPC
// partition (hot PEs), thermally-aware placement, calibrated-ish energy.
func buildSystem(t testing.TB, n int) *System {
	t.Helper()
	g := geom.NewGrid(n, n)
	code, err := ldpc.NewRegular(40*g.N(), 20*g.N(), 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	part, err := appmap.Skewed(code, g.N(), 3, 0.55, 7)
	if err != nil {
		t.Fatal(err)
	}
	net, err := noc.New(g, noc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := appmap.NewEngine(code, part, net)
	if err != nil {
		t.Fatal(err)
	}
	eng.MaxIter = 6

	fp := floorplan.NewMesh(g)
	tn, err := thermal.NewNetwork(fp, thermal.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	inf, err := thermal.NewInfluence(tn)
	if err != nil {
		t.Fatal(err)
	}

	// Scale the energy table so the small test workload produces chip
	// temperatures in the paper's range (the real calibration lives in
	// chipcfg; here any thermally meaningful scale works).
	energy := power.Default160nm().Scale(10)

	ops := appmap.OpsPerPE(code, part)
	pePower := make([]float64, g.N())
	for i, o := range ops {
		pePower[i] = float64(o) * energy.PEOpJ / 40e-6
	}
	pl, err := place.Anneal(&place.Problem{
		Grid: g, Inf: inf, PEPower: pePower,
		Traffic: appmap.TrafficMatrix(code, part), CommWeight: 1e-4,
	}, place.Options{Seed: 3, Iters: 4000})
	if err != nil {
		t.Fatal(err)
	}

	mig := NewMigrator(net)
	mig.StateFlits = 32

	return &System{
		Grid:         g,
		Therm:        tn,
		Energy:       energy,
		Leak:         power.DefaultLeakage(),
		ClockHz:      250e6,
		Engine:       eng,
		Migrator:     mig,
		InitialPlace: pl.Place,
	}
}

// TestRunXYShiftReducesPeak: the headline effect — migrating with X-Y
// shift lowers the peak temperature below the thermally-aware static
// placement.
func TestRunXYShiftReducesPeak(t *testing.T) {
	sys := buildSystem(t, 4)
	res, err := sys.Run(RunConfig{Scheme: XYShift()})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReductionC <= 0 {
		t.Fatalf("X-Y shift reduction %.3f °C, want > 0 (baseline %.2f, migrated %.2f)",
			res.ReductionC, res.BaselinePeakC, res.MigratedPeakC)
	}
	if res.BaselinePeakC < 45 {
		t.Fatalf("baseline peak %.2f °C too cold to be meaningful", res.BaselinePeakC)
	}
	if res.ThroughputPenalty <= 0 || res.ThroughputPenalty > 0.25 {
		t.Fatalf("throughput penalty %.4f outside plausible range", res.ThroughputPenalty)
	}
	if len(res.Legs) != XYShift().OrbitLen(sys.Grid) {
		t.Fatalf("%d legs, want %d", len(res.Legs), XYShift().OrbitLen(sys.Grid))
	}
}

// TestRunPeriodTradeoff reproduces the paper's period study shape: longer
// periods cut the throughput penalty roughly in proportion while the peak
// temperature rises only slightly.
func TestRunPeriodTradeoff(t *testing.T) {
	sys := buildSystem(t, 4)
	var peaks, penalties []float64
	for _, blocks := range []int{1, 4, 8} {
		res, err := sys.Run(RunConfig{Scheme: XYShift(), BlocksPerPeriod: blocks})
		if err != nil {
			t.Fatal(err)
		}
		peaks = append(peaks, res.MigratedPeakC)
		penalties = append(penalties, res.ThroughputPenalty)
	}
	if !(penalties[0] > penalties[1] && penalties[1] > penalties[2]) {
		t.Fatalf("penalty not decreasing with period: %v", penalties)
	}
	// Quadrupling the period must cut the penalty by at least 3x.
	if penalties[0]/penalties[1] < 3 {
		t.Fatalf("1->4 block penalty ratio %.2f, want >= 3", penalties[0]/penalties[1])
	}
	if peaks[1] < peaks[0]-0.05 || peaks[2] < peaks[1]-0.05 {
		t.Fatalf("peaks not (weakly) increasing with period: %v", peaks)
	}
	// Paper: 1 -> 4 blocks raises peak by less than a tenth of a degree.
	if peaks[1]-peaks[0] > 0.25 {
		t.Fatalf("4-block period raised peak %.3f °C over 1-block", peaks[1]-peaks[0])
	}
}

// TestMigrationEnergyRaisesMeanTemp: including state-transfer energy must
// raise the average chip temperature relative to the free-migration
// ablation — the mechanism of the paper's rotation penalty.
func TestMigrationEnergyRaisesMeanTemp(t *testing.T) {
	sys := buildSystem(t, 4)
	with, err := sys.Run(RunConfig{Scheme: Rot()})
	if err != nil {
		t.Fatal(err)
	}
	without, err := sys.Run(RunConfig{Scheme: Rot(), ExcludeMigrationEnergy: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.MigratedMeanC <= without.MigratedMeanC {
		t.Fatalf("migration energy did not raise mean temp: %.4f vs %.4f",
			with.MigratedMeanC, without.MigratedMeanC)
	}
	if with.MigrationEnergyJ <= 0 {
		t.Fatal("no migration energy recorded")
	}
}

// TestRunDeterminism: identical systems and configs give identical results.
func TestRunDeterminism(t *testing.T) {
	a, err := buildSystem(t, 4).Run(RunConfig{Scheme: XMirrorScheme()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildSystem(t, 4).Run(RunConfig{Scheme: XMirrorScheme()})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.MigratedPeakC-b.MigratedPeakC) > 1e-9 ||
		a.ThroughputPenalty != b.ThroughputPenalty {
		t.Fatalf("runs differ: %.6f/%.6f vs %.6f/%.6f",
			a.MigratedPeakC, a.ThroughputPenalty, b.MigratedPeakC, b.ThroughputPenalty)
	}
}

// TestRunValidation covers the error paths.
func TestRunValidation(t *testing.T) {
	sys := buildSystem(t, 4)
	if _, err := sys.Run(RunConfig{}); err == nil {
		t.Fatal("nil scheme accepted")
	}
	if _, err := sys.Run(RunConfig{Scheme: Rot(), BlocksPerPeriod: -1}); err == nil {
		t.Fatal("negative period accepted")
	}
	bad, err := sys.Clone()
	if err != nil {
		t.Fatal(err)
	}
	bad.ClockHz = 0
	if _, err := bad.Run(RunConfig{Scheme: Rot()}); err == nil {
		t.Fatal("zero clock accepted")
	}
}
