package thermal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hotnoc/internal/floorplan"
	"hotnoc/internal/geom"
)

func testNetwork(t testing.TB, n int) *Network {
	t.Helper()
	fp := floorplan.NewMesh(geom.NewGrid(n, n))
	nw, err := NewNetwork(fp, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestZeroPowerIsAmbient: with no dissipation every node sits at ambient.
func TestZeroPowerIsAmbient(t *testing.T) {
	nw := testNetwork(t, 4)
	s, err := NewSteadySolver(nw)
	if err != nil {
		t.Fatal(err)
	}
	full := make([]float64, nw.NNodes)
	s.SolveFullInto(full, make([]float64, nw.NDie))
	for i, temp := range full {
		if math.Abs(temp-nw.Par.AmbientC) > 1e-9 {
			t.Fatalf("node %d at %g °C with zero power, want ambient %g",
				i, temp, nw.Par.AmbientC)
		}
	}
}

// TestEnergyConservation: in steady state all dissipated power must leave
// through the sink's convection resistance, so the sink superheat equals
// total power times RConvection.
func TestEnergyConservation(t *testing.T) {
	for _, n := range []int{2, 4, 5} {
		nw := testNetwork(t, n)
		s, err := NewSteadySolver(nw)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(n)))
		power := make([]float64, nw.NDie)
		total := 0.0
		for i := range power {
			power[i] = r.Float64() * 2
			total += power[i]
		}
		full := make([]float64, nw.NNodes)
		s.SolveFullInto(full, power)
		sinkT := full[2*nw.NDie]
		wantRise := total * nw.Par.RConvection
		if got := sinkT - nw.Par.AmbientC; math.Abs(got-wantRise) > 1e-8*math.Max(1, wantRise) {
			t.Fatalf("n=%d: sink rise %g °C, want %g (conservation violated)", n, got, wantRise)
		}
	}
}

// TestSymmetricPowerSymmetricTemps: a uniform power map on a square chip
// must give a temperature field with the full dihedral symmetry.
func TestSymmetricPowerSymmetricTemps(t *testing.T) {
	nw := testNetwork(t, 5)
	s, err := NewSteadySolver(nw)
	if err != nil {
		t.Fatal(err)
	}
	power := make([]float64, nw.NDie)
	for i := range power {
		power[i] = 1.0
	}
	die := s.Solve(power)
	g := nw.FP.Grid
	for _, tr := range []geom.Transform{geom.Rotation(5), geom.XMirror(5), geom.XYMirror(5, 5)} {
		for _, c := range g.Coords() {
			a := die[g.Index(c)]
			b := die[g.Index(tr.Apply(g, c))]
			if math.Abs(a-b) > 1e-9 {
				t.Fatalf("uniform power not %s-symmetric: %v=%g vs image=%g", tr.Name, c, a, b)
			}
		}
	}
}

// TestCenterHotterThanCorner: under uniform power the centre block, with the
// least lateral spreading headroom, must be the hottest and the corners the
// coolest — the geometric fact behind the paper's central-hotspot argument.
func TestCenterHotterThanCorner(t *testing.T) {
	nw := testNetwork(t, 5)
	s, err := NewSteadySolver(nw)
	if err != nil {
		t.Fatal(err)
	}
	power := make([]float64, nw.NDie)
	for i := range power {
		power[i] = 1.0
	}
	die := s.Solve(power)
	g := nw.FP.Grid
	center, _ := g.Center()
	tCenter := die[g.Index(center)]
	tCorner := die[g.Index(geom.Coord{X: 0, Y: 0})]
	if tCenter <= tCorner {
		t.Fatalf("centre %g °C not hotter than corner %g °C", tCenter, tCorner)
	}
	if _, peakI := Peak(die); peakI != g.Index(center) {
		t.Fatalf("peak at block %d, want centre %d", peakI, g.Index(center))
	}
}

// TestMonotonicity property: adding power anywhere never cools any block
// (the influence matrix is entry-wise non-negative).
func TestMonotonicity(t *testing.T) {
	nw := testNetwork(t, 4)
	inf, err := NewInfluence(nw)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inf.N; i++ {
		for j := 0; j < inf.N; j++ {
			if inf.A.At(i, j) < 0 {
				t.Fatalf("influence A[%d][%d] = %g < 0", i, j, inf.A.At(i, j))
			}
		}
	}
}

// TestReciprocity property: the influence matrix is symmetric — one watt in
// block j heats block i exactly as much as the reverse.
func TestReciprocity(t *testing.T) {
	nw := testNetwork(t, 5)
	inf, err := NewInfluence(nw)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inf.N; i++ {
		for j := i + 1; j < inf.N; j++ {
			a, b := inf.A.At(i, j), inf.A.At(j, i)
			if math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(a)) {
				t.Fatalf("A[%d][%d]=%g != A[%d][%d]=%g", i, j, a, j, i, b)
			}
		}
	}
}

// TestSelfInfluenceDominates: a block is heated more by its own watt than
// by a watt anywhere else; locality is what migration exploits.
func TestSelfInfluenceDominates(t *testing.T) {
	nw := testNetwork(t, 5)
	inf, err := NewInfluence(nw)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inf.N; i++ {
		for j := 0; j < inf.N; j++ {
			if j != i && inf.A.At(i, j) >= inf.A.At(i, i) {
				t.Fatalf("A[%d][%d]=%g >= self influence A[%d][%d]=%g",
					i, j, inf.A.At(i, j), i, i, inf.A.At(i, i))
			}
		}
	}
}

// TestInfluenceMatchesSolver property: influence-based temperatures agree
// with direct solves for random power maps.
func TestInfluenceMatchesSolver(t *testing.T) {
	nw := testNetwork(t, 4)
	inf, err := NewInfluence(nw)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSteadySolver(nw)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		power := make([]float64, nw.NDie)
		for i := range power {
			power[i] = r.Float64() * 3
		}
		direct := s.Solve(power)
		via := make([]float64, nw.NDie)
		for i := range via {
			via[i] = inf.Ambient
			for j, p := range power {
				via[i] += inf.A.At(i, j) * p
			}
		}
		peak1, _ := Peak(direct)
		if math.Abs(peak1-inf.PeakTemp(power)) > 1e-8 {
			return false
		}
		return vecMaxAbsDiff(direct, via) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestDistanceDecay: influence decays with Manhattan distance from the
// source along a row.
func TestDistanceDecay(t *testing.T) {
	nw := testNetwork(t, 5)
	inf, err := NewInfluence(nw)
	if err != nil {
		t.Fatal(err)
	}
	g := nw.FP.Grid
	src := g.Index(geom.Coord{X: 0, Y: 2})
	prev := math.Inf(1)
	for x := 0; x < 5; x++ {
		v := inf.A.At(g.Index(geom.Coord{X: x, Y: 2}), src)
		if v >= prev {
			t.Fatalf("influence did not decay along row: x=%d gives %g >= %g", x, v, prev)
		}
		prev = v
	}
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("default params rejected: %v", err)
	}
	bad := DefaultParams()
	bad.KSilicon = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero conductivity accepted")
	}
	bad = DefaultParams()
	bad.RSinkSpread = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative spreading resistance accepted")
	}
}

func TestNetworkRejectsBadInputs(t *testing.T) {
	fp := floorplan.NewMesh(geom.NewGrid(2, 2))
	bad := DefaultParams()
	bad.TDie = -1
	if _, err := NewNetwork(fp, bad); err == nil {
		t.Fatal("NewNetwork accepted invalid params")
	}
	broken := floorplan.NewMesh(geom.NewGrid(2, 2))
	broken.Blocks[1].X = 0 // overlap
	if _, err := NewNetwork(broken, DefaultParams()); err == nil {
		t.Fatal("NewNetwork accepted invalid floorplan")
	}
}

func TestPeakAndMean(t *testing.T) {
	die := []float64{41, 45, 43, 44}
	p, i := Peak(die)
	if p != 45 || i != 1 {
		t.Fatalf("Peak = (%g,%d), want (45,1)", p, i)
	}
	if m := Mean(die); math.Abs(m-43.25) > 1e-12 {
		t.Fatalf("Mean = %g, want 43.25", m)
	}
}
