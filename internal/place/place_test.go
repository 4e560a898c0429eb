package place

import (
	"math"
	"math/rand"
	"testing"

	"hotnoc/internal/floorplan"
	"hotnoc/internal/geom"
	"hotnoc/internal/power"
	"hotnoc/internal/thermal"
)

func testInfluence(t testing.TB, n int) (*thermal.Influence, geom.Grid) {
	t.Helper()
	g := geom.NewGrid(n, n)
	nw, err := thermal.NewNetwork(floorplan.NewMesh(g), thermal.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	inf, err := thermal.NewInfluence(nw)
	if err != nil {
		t.Fatal(err)
	}
	return inf, g
}

func skewedPower(n int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.2 + 0.1*r.Float64()
	}
	// A few hot PEs, clustered at the low indices like a check-heavy
	// partition.
	p[0], p[1], p[2] = 1.5, 1.2, 1.0
	return p
}

// TestAnnealImprovesOnIdentity: for a clustered-hot power profile the
// annealer must beat the identity placement's peak temperature.
func TestAnnealImprovesOnIdentity(t *testing.T) {
	inf, g := testInfluence(t, 4)
	pw := skewedPower(16, 1)
	identityPeak := inf.PeakTemp(pw)
	res, err := Anneal(&Problem{Grid: g, Inf: inf, PEPower: pw}, Options{Seed: 2, Iters: 8000})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakC >= identityPeak {
		t.Fatalf("annealed peak %g did not improve identity %g", res.PeakC, identityPeak)
	}
}

// TestAnnealNeverWorseThanInitial: the returned best is at most the
// initial cost, whatever the cooling randomness does.
func TestAnnealNeverWorseThanInitial(t *testing.T) {
	inf, g := testInfluence(t, 4)
	for seed := int64(0); seed < 5; seed++ {
		pw := skewedPower(16, seed)
		initialPeak := inf.PeakTemp(pw)
		res, err := Anneal(&Problem{Grid: g, Inf: inf, PEPower: pw},
			Options{Seed: seed, Iters: 500})
		if err != nil {
			t.Fatal(err)
		}
		if res.PeakC > initialPeak+1e-9 {
			t.Fatalf("seed %d: result %g worse than initial %g", seed, res.PeakC, initialPeak)
		}
	}
}

// TestAnnealReturnsBijection: the placement must always be a permutation.
func TestAnnealReturnsBijection(t *testing.T) {
	inf, g := testInfluence(t, 5)
	pw := skewedPower(25, 3)
	res, err := Anneal(&Problem{Grid: g, Inf: inf, PEPower: pw}, Options{Seed: 4, Iters: 3000})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, 25)
	for _, b := range res.Place {
		if b < 0 || b >= 25 || seen[b] {
			t.Fatalf("placement not a bijection: %v", res.Place)
		}
		seen[b] = true
	}
}

// TestAnnealDeterministic: identical seeds give identical placements.
func TestAnnealDeterministic(t *testing.T) {
	inf, g := testInfluence(t, 4)
	pw := skewedPower(16, 5)
	prob := &Problem{Grid: g, Inf: inf, PEPower: pw}
	a, err := Anneal(prob, Options{Seed: 6, Iters: 2000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Anneal(prob, Options{Seed: 6, Iters: 2000})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Place {
		if a.Place[i] != b.Place[i] {
			t.Fatalf("placements differ at %d", i)
		}
	}
	if a.Cost != b.Cost {
		t.Fatalf("costs differ: %g vs %g", a.Cost, b.Cost)
	}
}

// TestCommWeightPullsTalkersTogether: with dominant communication weight,
// two heavily-communicating PEs end up adjacent.
func TestCommWeightPullsTalkersTogether(t *testing.T) {
	inf, g := testInfluence(t, 4)
	n := 16
	pw := make([]float64, n)
	for i := range pw {
		pw[i] = 0.3
	}
	traffic := make([][]int64, n)
	for i := range traffic {
		traffic[i] = make([]int64, n)
	}
	traffic[0][15] = 1000
	traffic[15][0] = 1000
	res, err := Anneal(&Problem{
		Grid: g, Inf: inf, PEPower: pw,
		Traffic: traffic, CommWeight: 1.0,
	}, Options{Seed: 7, Iters: 10000})
	if err != nil {
		t.Fatal(err)
	}
	d := g.Coord(res.Place[0]).Manhattan(g.Coord(res.Place[15]))
	if d != 1 {
		t.Fatalf("heavy talkers placed %d hops apart, want 1", d)
	}
}

// TestThermalCommTradeoff: raising the communication weight cannot
// decrease the communication cost achieved... it should weakly reduce
// hops at the expense of peak temperature.
func TestThermalCommTradeoff(t *testing.T) {
	inf, g := testInfluence(t, 4)
	n := 16
	pw := skewedPower(n, 8)
	r := rand.New(rand.NewSource(9))
	traffic := make([][]int64, n)
	for i := range traffic {
		traffic[i] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := int64(r.Intn(50))
			traffic[i][j], traffic[j][i] = v, v
		}
	}
	run := func(w float64) Result {
		res, err := Anneal(&Problem{Grid: g, Inf: inf, PEPower: pw, Traffic: traffic, CommWeight: w},
			Options{Seed: 10, Iters: 15000})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	thermalOnly := run(1e-6)
	commHeavy := run(0.1)
	if commHeavy.CommHops > thermalOnly.CommHops {
		t.Fatalf("higher comm weight produced more hops: %g vs %g",
			commHeavy.CommHops, thermalOnly.CommHops)
	}
	if commHeavy.PeakC < thermalOnly.PeakC-1e-9 {
		t.Fatalf("comm-heavy placement beat thermal-only on temperature: %g vs %g",
			commHeavy.PeakC, thermalOnly.PeakC)
	}
}

// TestValidate covers the problem validation paths.
func TestValidate(t *testing.T) {
	inf, g := testInfluence(t, 4)
	// traffic returns a symmetric zero-diagonal matrix edited by f.
	traffic := func(f func([][]int64)) [][]int64 {
		m := make([][]int64, 16)
		for i := range m {
			m[i] = make([]int64, 16)
		}
		m[0][5], m[5][0] = 7, 7
		f(m)
		return m
	}
	good := &Problem{Grid: g, Inf: inf, PEPower: make([]float64, 16),
		Traffic: traffic(func([][]int64) {}), IOTraffic: make([]int64, 16)}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	cases := []*Problem{
		{Grid: g, Inf: nil, PEPower: make([]float64, 16)},
		{Grid: g, Inf: inf, PEPower: make([]float64, 15)},
		{Grid: g, Inf: inf, PEPower: append(make([]float64, 15), -1)},
		{Grid: g, Inf: inf, PEPower: append(make([]float64, 15), math.NaN())},
		{Grid: g, Inf: inf, PEPower: make([]float64, 16), Traffic: make([][]int64, 3)},
		{Grid: g, Inf: inf, PEPower: make([]float64, 16), CommWeight: -1},
		{Grid: g, Inf: inf, PEPower: make([]float64, 16), Traffic: traffic(func(m [][]int64) { m[1][2] = 5 })},
		{Grid: g, Inf: inf, PEPower: make([]float64, 16), Traffic: traffic(func(m [][]int64) { m[3][3] = 1 })},
		{Grid: g, Inf: inf, PEPower: make([]float64, 16), Traffic: traffic(func(m [][]int64) { m[0][4], m[4][0] = -2, -2 })},
		{Grid: g, Inf: inf, PEPower: make([]float64, 16), IOTraffic: append(make([]int64, 15), -1)},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}

	// The hop sums are exact while the volume summed over the whole
	// matrix (or the I/O vector) times the grid diameter, 6 here, stays
	// below 2^53: just below is accepted, reaching it is rejected.
	const limit = (1<<53 + 5) / 6 // the least volume with volume*6 >= 2^53
	for _, tc := range []struct {
		volume int64
		ok     bool
	}{{limit - 2, true}, {limit, false}, {math.MaxInt64, false}} {
		half := (tc.volume - 14) / 2 // the edit below adds 2*half to the 14 already there
		comm := &Problem{Grid: g, Inf: inf, PEPower: make([]float64, 16),
			Traffic: traffic(func(m [][]int64) { m[1][2], m[2][1] = half, half })}
		io := &Problem{Grid: g, Inf: inf, PEPower: make([]float64, 16),
			IOTraffic: append(make([]int64, 15), tc.volume)}
		for name, p := range map[string]*Problem{"traffic": comm, "I/O traffic": io} {
			if err := p.Validate(); (err == nil) != tc.ok {
				t.Errorf("%s volume %d: Validate = %v, want ok %v", name, tc.volume, err, tc.ok)
			}
		}
	}
	// Traffic rows whose sum overflows int64 are rejected, not wrapped.
	huge := &Problem{Grid: g, Inf: inf, PEPower: make([]float64, 16),
		Traffic: traffic(func(m [][]int64) { m[1][2], m[2][1] = math.MaxInt64, math.MaxInt64 })}
	if err := huge.Validate(); err == nil {
		t.Error("traffic summing past int64 accepted")
	}
}

// TestAnnealInitialValidation: malformed initial placements are rejected.
func TestAnnealInitialValidation(t *testing.T) {
	inf, g := testInfluence(t, 4)
	prob := &Problem{Grid: g, Inf: inf, PEPower: make([]float64, 16)}
	if _, err := Anneal(prob, Options{Initial: make([]int, 5)}); err == nil {
		t.Fatal("short initial accepted")
	}
	if _, err := Anneal(prob, Options{Initial: make([]int, 16)}); err == nil {
		t.Fatal("non-bijective initial accepted")
	}
}

// TestAnnealRestartsDeterministicAcrossParallelism: a multi-restart
// search returns bitwise-identical results whatever the worker-pool
// size — the scheduling of restarts must not leak into the outcome.
func TestAnnealRestartsDeterministicAcrossParallelism(t *testing.T) {
	inf, g := testInfluence(t, 4)
	pw := skewedPower(16, 13)
	prob := &Problem{Grid: g, Inf: inf, PEPower: pw}
	var ref Result
	for i, par := range []int{1, 2, 4, 7} {
		res, err := Anneal(prob, Options{Seed: 20, Iters: 1500, Restarts: 6, Parallel: par})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res
			continue
		}
		if res.Cost != ref.Cost || res.PeakC != ref.PeakC || res.Accepted != ref.Accepted {
			t.Fatalf("parallel=%d: result (%g, %g, %d) differs from parallel=1 (%g, %g, %d)",
				par, res.Cost, res.PeakC, res.Accepted, ref.Cost, ref.PeakC, ref.Accepted)
		}
		for j := range res.Place {
			if res.Place[j] != ref.Place[j] {
				t.Fatalf("parallel=%d: placement differs at %d", par, j)
			}
		}
	}
}

// TestAnnealRestartsPickBest: the multi-restart result equals the best
// (lowest-cost, lowest-seed on ties) of the individual seeded runs.
func TestAnnealRestartsPickBest(t *testing.T) {
	inf, g := testInfluence(t, 4)
	pw := skewedPower(16, 14)
	prob := &Problem{Grid: g, Inf: inf, PEPower: pw}
	const seed, restarts = 30, 5
	best := -1
	var bestRes Result
	for i := 0; i < restarts; i++ {
		res, err := Anneal(prob, Options{Seed: seed + int64(i), Iters: 1200})
		if err != nil {
			t.Fatal(err)
		}
		if best < 0 || res.Cost < bestRes.Cost {
			best, bestRes = i, res
		}
	}
	multi, err := Anneal(prob, Options{Seed: seed, Iters: 1200, Restarts: restarts})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Cost != bestRes.Cost {
		t.Fatalf("restarts returned cost %g, best individual seed (%d) has %g",
			multi.Cost, best, bestRes.Cost)
	}
	for i := range multi.Place {
		if multi.Place[i] != bestRes.Place[i] {
			t.Fatalf("restart winner's placement differs from seed %d's at %d", best, i)
		}
	}
}

// TestAnnealRestartsTieBreakLowestSeed: when every restart reaches the
// same cost (uniform power, no communication terms: every placement is
// equivalent), the winner must be the lowest seed's result.
func TestAnnealRestartsTieBreakLowestSeed(t *testing.T) {
	inf, g := testInfluence(t, 4)
	pw := make([]float64, 16)
	for i := range pw {
		pw[i] = 0.5
	}
	prob := &Problem{Grid: g, Inf: inf, PEPower: pw}
	single, err := Anneal(prob, Options{Seed: 40, Iters: 300})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Anneal(prob, Options{Seed: 40, Iters: 300, Restarts: 4, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Cost != single.Cost || multi.Accepted != single.Accepted {
		t.Fatalf("tie not broken by lowest seed: multi (%g, %d) vs seed-40 single (%g, %d)",
			multi.Cost, multi.Accepted, single.Cost, single.Accepted)
	}
	for i := range multi.Place {
		if multi.Place[i] != single.Place[i] {
			t.Fatalf("tie winner differs from lowest seed's placement at %d", i)
		}
	}
}

// TestAnnealCountCountsRestarts: the process-wide counter advances once
// per restart — it is what warm-start tests assert stays flat.
func TestAnnealCountCountsRestarts(t *testing.T) {
	inf, g := testInfluence(t, 4)
	prob := &Problem{Grid: g, Inf: inf, PEPower: skewedPower(16, 15)}
	before := AnnealCount()
	if _, err := Anneal(prob, Options{Seed: 50, Iters: 100, Restarts: 3}); err != nil {
		t.Fatal(err)
	}
	if got := AnnealCount() - before; got != 3 {
		t.Fatalf("3 restarts advanced the anneal counter by %d", got)
	}
}

// TestPermutedPowerPeakConsistency: the annealer's reported peak matches an
// independent evaluation of its placement.
func TestPermutedPowerPeakConsistency(t *testing.T) {
	inf, g := testInfluence(t, 4)
	pw := skewedPower(16, 11)
	res, err := Anneal(&Problem{Grid: g, Inf: inf, PEPower: pw}, Options{Seed: 12, Iters: 2000})
	if err != nil {
		t.Fatal(err)
	}
	placed := make([]float64, len(pw))
	power.PermuteInto(placed, pw, res.Place)
	want := inf.PeakTemp(placed)
	if math.Abs(res.PeakC-want) > 1e-9 {
		t.Fatalf("reported peak %g, recomputed %g", res.PeakC, want)
	}
}
