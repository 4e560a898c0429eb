package place

import (
	"math"
	"math/rand"
	"testing"

	"hotnoc/internal/geom"
	"hotnoc/internal/power"
)

// refEval is the straightforward annealer cost, the oracle the
// table-driven objective must reproduce bit for bit: grid coordinates are
// recomputed for every pair and every I/O-bearing PE.
func refEval(p *Problem, place []int) (cost, peak, hops float64) {
	placed := make([]float64, len(place))
	power.PermuteInto(placed, p.PEPower, place)
	peak = p.Inf.PeakTemp(placed)
	if p.Traffic != nil && p.CommWeight > 0 {
		hops = refCommHops(p.Grid, p.Traffic, place)
	}
	cost = peak + p.CommWeight*hops
	if p.IOTraffic != nil && p.IOWeight > 0 {
		io := 0.0
		for i, v := range p.IOTraffic {
			if v != 0 {
				io += float64(v) * float64(p.IOCoord.Manhattan(p.Grid.Coord(place[i])))
			}
		}
		cost += p.IOWeight * io
	}
	return cost, peak, hops
}

func refCommHops(g geom.Grid, traffic [][]int64, place []int) float64 {
	total := 0.0
	for i := range traffic {
		ci := g.Coord(place[i])
		for j := i + 1; j < len(traffic); j++ {
			if traffic[i][j] == 0 {
				continue
			}
			total += float64(traffic[i][j]) * float64(ci.Manhattan(g.Coord(place[j])))
		}
	}
	return total
}

// randomProblem draws a problem with both the communication and the I/O
// term on: symmetric traffic with some zero pairs, and I/O traffic on
// some PEs.
func randomProblem(t testing.TB, side int, r *rand.Rand) *Problem {
	inf, g := testInfluence(t, side)
	n := g.N()
	traffic := make([][]int64, n)
	for i := range traffic {
		traffic[i] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Intn(3) > 0 {
				v := int64(r.Intn(5000))
				traffic[i][j], traffic[j][i] = v, v
			}
		}
	}
	io := make([]int64, n)
	for i := range io {
		if r.Intn(2) == 0 {
			io[i] = int64(r.Intn(400))
		}
	}
	return &Problem{
		Grid: g, Inf: inf, PEPower: skewedPower(n, r.Int63()),
		Traffic: traffic, CommWeight: 1e-3 * r.Float64(),
		IOTraffic: io, IOCoord: geom.Coord{X: r.Intn(side), Y: 0}, IOWeight: 3e-3 * r.Float64(),
	}
}

// TestObjectiveMatchesRef: on random placements of random problems the
// table-driven objective's cost, peak and hops equal the oracle's bits.
func TestObjectiveMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for _, side := range []int{3, 4, 5} {
		for trial := 0; trial < 5; trial++ {
			p := randomProblem(t, side, r)
			obj := newObjective(p)
			for k := 0; k < 50; k++ {
				place := r.Perm(p.Grid.N())
				wc, wp, wh := refEval(p, place)
				gc, gp, gh := obj.eval(place)
				if math.Float64bits(gc) != math.Float64bits(wc) ||
					math.Float64bits(gp) != math.Float64bits(wp) ||
					math.Float64bits(gh) != math.Float64bits(wh) {
					t.Fatalf("side %d: eval = (%v, %v, %v), oracle (%v, %v, %v)",
						side, gc, gp, gh, wc, wp, wh)
				}
			}
		}
	}
}

// TestAnnealCostAllocationFree pins the per-proposal objective at zero
// allocations, the runtime complement of its //hotnoc:noalloc annotation.
func TestAnnealCostAllocationFree(t *testing.T) {
	p := randomProblem(t, 5, rand.New(rand.NewSource(3)))
	obj := newObjective(p)
	place := rand.New(rand.NewSource(4)).Perm(p.Grid.N())
	if a := testing.AllocsPerRun(100, func() { obj.eval(place) }); a != 0 {
		t.Fatalf("objective eval allocates %v times per call", a)
	}
}
