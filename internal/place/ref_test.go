package place

import (
	"math"
	"math/rand"
	"reflect"
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

// TestEvalSwapMatchesRef: along a random walk of swaps, each kept or
// undone at random as the annealer would, evalSwap's cost, peak and
// hops carried from the last kept placement equal the oracle's bits.
func TestEvalSwapMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	for _, side := range []int{2, 3, 5, 6} {
		for trial := 0; trial < 4; trial++ {
			p := randomProblem(t, side, r)
			if trial == 3 {
				p.Traffic = nil // the hop sum stays zero
			}
			n := p.Grid.N()
			obj := newObjective(p)
			place := r.Perm(n)
			_, _, curHops := obj.eval(place)
			for k := 0; k < 400; k++ {
				i, j := r.Intn(n), r.Intn(n)
				if i == j {
					continue
				}
				place[i], place[j] = place[j], place[i]
				gc, gp, gh := obj.evalSwap(place, i, j, curHops)
				wc, wp, wh := refEval(p, place)
				if math.Float64bits(gc) != math.Float64bits(wc) ||
					math.Float64bits(gp) != math.Float64bits(wp) ||
					math.Float64bits(gh) != math.Float64bits(wh) {
					t.Fatalf("side %d step %d: evalSwap = (%v, %v, %v), oracle (%v, %v, %v)",
						side, k, gc, gp, gh, wc, wp, wh)
				}
				if r.Intn(2) == 0 {
					curHops = gh
				} else {
					place[i], place[j] = place[j], place[i]
				}
			}
		}
	}
}

// TestAnnealCostAllocationFree pins the initial and per-proposal
// objectives at zero allocations, the runtime complement of their
// //hotnoc:noalloc annotations.
func TestAnnealCostAllocationFree(t *testing.T) {
	p := randomProblem(t, 5, rand.New(rand.NewSource(3)))
	obj := newObjective(p)
	place := rand.New(rand.NewSource(4)).Perm(p.Grid.N())
	if a := testing.AllocsPerRun(100, func() { obj.eval(place) }); a != 0 {
		t.Fatalf("objective eval allocates %v times per call", a)
	}
	if a := testing.AllocsPerRun(100, func() { obj.evalSwap(place, 1, 7, 1e4) }); a != 0 {
		t.Fatalf("objective evalSwap allocates %v times per call", a)
	}
}

// refAnneal is the annealer as it stood before the incremental hop sum:
// every proposal is costed by the full refEval, and restarts run one
// after another. Anneal must return a DeepEqual Result: the same
// placement, the same cost bits and the same accepted-move count.
func refAnneal(p *Problem, opts Options) Result {
	opts.setDefaults()
	restarts := max(opts.Restarts, 1)
	var best Result
	for r := 0; r < restarts; r++ {
		res := refAnnealOnce(p, opts, opts.Seed+int64(r))
		if r == 0 || res.Cost < best.Cost {
			best = res
		}
	}
	return best
}

func refAnnealOnce(p *Problem, opts Options, seed int64) Result {
	n := p.Grid.N()
	cur := make([]int, n)
	if opts.Initial != nil {
		copy(cur, opts.Initial)
	} else {
		for i := range cur {
			cur[i] = i
		}
	}
	rng := rand.New(rand.NewSource(seed))
	curCost, bestPeak, bestHops := refEval(p, cur)
	best := append([]int(nil), cur...)
	bestCost := curCost
	accepted := 0
	cool := math.Pow(opts.TEnd/opts.TStart, 1/float64(opts.Iters))
	temp := opts.TStart
	for it := 0; it < opts.Iters; it++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			temp *= cool
			continue
		}
		cur[i], cur[j] = cur[j], cur[i]
		cost, peak, hops := refEval(p, cur)
		if cost <= curCost || rng.Float64() < math.Exp((curCost-cost)/temp) {
			curCost = cost
			accepted++
			if cost < bestCost {
				bestCost, bestPeak, bestHops = cost, peak, hops
				copy(best, cur)
			}
		} else {
			cur[i], cur[j] = cur[j], cur[i]
		}
		temp *= cool
	}
	return Result{Place: best, PeakC: bestPeak, CommHops: bestHops, Cost: bestCost, Accepted: accepted}
}

// TestAnnealMatchesRef: on random problems of side 3 to 6, with the
// communication and I/O terms each on and off, single searches and
// restarts, from identity and from a random initial placement, Anneal's
// incremental hop sum gives the frozen full-cost annealer's Result.
func TestAnnealMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for side := 3; side <= 6; side++ {
		for _, terms := range []struct{ comm, io bool }{{true, true}, {true, false}, {false, true}, {false, false}} {
			p := randomProblem(t, side, r)
			if !terms.comm {
				p.Traffic = nil
			}
			if !terms.io {
				p.IOWeight = 0
			}
			// A larger weight makes the hop term steer the search.
			p.CommWeight *= 10
			for _, opts := range []Options{
				{Seed: r.Int63(), Iters: 3000},
				{Seed: r.Int63(), Iters: 1500, Restarts: 3, Parallel: 2},
				{Seed: r.Int63(), Iters: 1500, Initial: r.Perm(p.Grid.N()), TStart: 0.5, TEnd: 1e-3},
			} {
				got, err := Anneal(p, opts)
				if err != nil {
					t.Fatal(err)
				}
				if want := refAnneal(p, opts); !reflect.DeepEqual(got, want) {
					t.Fatalf("side %d comm %v io %v opts %+v:\nAnneal %+v\noracle %+v",
						side, terms.comm, terms.io, opts, got, want)
				}
			}
		}
	}
}
