// Package place implements the thermally-aware static placement the paper
// uses to generate its initial mappings ("our workload was mapped onto PEs
// using a thermally-aware placement algorithm that minimizes the peak
// temperature"). Placement is simulated annealing over logical-to-physical
// PE bijections with a two-term objective: the steady-state peak
// temperature of the resulting power map (evaluated through the precomputed
// thermal-influence matrix, so each candidate costs one small mat-vec) plus
// a weighted communication cost (message-hops), reflecting that real
// mappings must also respect interconnect locality. Starting the paper's
// evaluation from such a mapping puts runtime reconfiguration in a
// worst-case light: design-time optimisation has already flattened the
// profile as far as a static mapping can.
//
//hotnoc:deterministic
package place

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"hotnoc/internal/geom"
	"hotnoc/internal/power"
	"hotnoc/internal/thermal"
)

// annealRuns counts annealing searches started in this process, one per
// restart. The sweep layer's build cache exists to make this number zero
// on a warm start, and tests assert exactly that through AnnealCount.
var annealRuns atomic.Uint64

// AnnealCount reports how many annealing searches this process has run
// (each restart of a multi-restart Anneal counts once). A build
// reconstituted from a persisted snapshot performs none.
func AnnealCount() uint64 { return annealRuns.Load() }

// Problem describes one placement instance over a grid of PEs.
type Problem struct {
	// Grid is the physical PE array.
	Grid geom.Grid
	// Inf is the thermal influence operator of the chip's floorplan.
	Inf *thermal.Influence
	// PEPower holds each logical PE's estimated power in watts (compute
	// plus its share of network power).
	PEPower []float64
	// Traffic[i][j] is the messages-per-iteration between logical PEs i
	// and j (symmetric, zero diagonal); nil disables the term.
	Traffic [][]int64
	// CommWeight converts message-hops into objective units (°C
	// equivalents). Zero gives a purely thermal placement.
	CommWeight float64
	// IOTraffic[i] is logical PE i's traffic to the chip's I/O interface
	// (channel LLRs in, hard decisions out); nil disables the term. Real
	// LDPC NoC chips stream blocks through edge pads, which anchors
	// I/O-heavy PEs near the interface and gives placements the banded
	// structure the paper observes.
	IOTraffic []int64
	// IOCoord is the mesh-side position of the I/O interface.
	IOCoord geom.Coord
	// IOWeight converts I/O message-hops into objective units.
	IOWeight float64
}

// Validate reports structural problems.
func (p *Problem) Validate() error {
	n := p.Grid.N()
	if p.Inf == nil || p.Inf.N != n {
		return fmt.Errorf("place: influence matrix missing or sized %d for %d PEs",
			infN(p.Inf), n)
	}
	if len(p.PEPower) != n {
		return fmt.Errorf("place: %d PE powers for %d PEs", len(p.PEPower), n)
	}
	for i, w := range p.PEPower {
		if w < 0 || math.IsNaN(w) {
			return fmt.Errorf("place: PE %d has invalid power %g", i, w)
		}
	}
	if p.Traffic != nil {
		if len(p.Traffic) != n {
			return fmt.Errorf("place: traffic matrix is %dx? for %d PEs", len(p.Traffic), n)
		}
		for i := range p.Traffic {
			if len(p.Traffic[i]) != n {
				return fmt.Errorf("place: traffic row %d has %d entries", i, len(p.Traffic[i]))
			}
		}
		// The objective reads only the upper triangle, so an asymmetric
		// matrix would silently drop traffic and a negative entry would
		// reward distance.
		for i, row := range p.Traffic {
			if row[i] != 0 {
				return fmt.Errorf("place: traffic[%d][%d] = %d, want a zero diagonal", i, i, row[i])
			}
			for j, v := range row {
				if v < 0 {
					return fmt.Errorf("place: negative traffic[%d][%d] = %d", i, j, v)
				}
				if v != p.Traffic[j][i] {
					return fmt.Errorf("place: traffic is not symmetric: [%d][%d] = %d, [%d][%d] = %d",
						i, j, v, j, i, p.Traffic[j][i])
				}
			}
		}
	}
	// Both hop sums are exact only while every partial sum is an integer
	// below 2^53 (see objective.evalSwap). A hop spans at most the grid
	// diameter, so volume times diameter below 2^53 is enough.
	diam := int64(p.Grid.W - 1 + p.Grid.H - 1)
	if p.Traffic != nil && exceedsExact(p.Traffic, diam) {
		return fmt.Errorf("place: traffic volume times the grid diameter %d reaches 2^53", diam)
	}
	if p.CommWeight < 0 {
		return fmt.Errorf("place: negative communication weight %g", p.CommWeight)
	}
	if p.IOTraffic != nil {
		if len(p.IOTraffic) != n {
			return fmt.Errorf("place: %d I/O traffic entries for %d PEs", len(p.IOTraffic), n)
		}
		for i, v := range p.IOTraffic {
			if v < 0 {
				return fmt.Errorf("place: PE %d has negative I/O traffic %d", i, v)
			}
		}
		if !p.Grid.Contains(p.IOCoord) {
			return fmt.Errorf("place: I/O interface at %v outside the grid", p.IOCoord)
		}
		if exceedsExact([][]int64{p.IOTraffic}, diam) {
			return fmt.Errorf("place: I/O traffic volume times the grid diameter %d reaches 2^53", diam)
		}
	}
	if p.IOWeight < 0 {
		return fmt.Errorf("place: negative I/O weight %g", p.IOWeight)
	}
	return nil
}

// exceedsExact reports whether the sum of the non-negative volumes in
// rows, times diam, reaches 2^53, without overflowing on the way.
func exceedsExact(rows [][]int64, diam int64) bool {
	if diam <= 0 {
		return false // one block: every distance is zero
	}
	limit := (1<<53 + diam - 1) / diam // sum*diam >= 2^53 iff sum >= limit
	sum := int64(0)
	for _, row := range rows {
		for _, v := range row {
			if v >= limit-sum {
				return true
			}
			sum += v
		}
	}
	return false
}

func infN(inf *thermal.Influence) int {
	if inf == nil {
		return 0
	}
	return inf.N
}

// Options tunes the annealer.
type Options struct {
	// Seed makes runs reproducible.
	Seed int64
	// Iters is the number of proposed swaps (default 20000).
	Iters int
	// TStart and TEnd bound the geometric cooling schedule in objective
	// units (defaults 5.0 and 0.01).
	TStart, TEnd float64
	// Initial, when non-nil, seeds the search; otherwise identity.
	Initial []int
	// Restarts runs that many independently-seeded searches (seeds Seed,
	// Seed+1, ..., Seed+Restarts-1) and returns the best result by cost,
	// ties broken by the lowest seed. Restarts run concurrently on a
	// bounded worker pool, and the outcome is bitwise identical regardless
	// of how the pool schedules them. Zero or one means a single search.
	Restarts int
	// Parallel bounds the restart worker pool (0 = GOMAXPROCS). It only
	// affects wall-clock time, never the result.
	Parallel int
}

func (o *Options) setDefaults() {
	if o.Iters <= 0 {
		o.Iters = 20000
	}
	if o.TStart <= 0 {
		o.TStart = 5.0
	}
	if o.TEnd <= 0 || o.TEnd >= o.TStart {
		o.TEnd = 0.01
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
}

// Result is the annealer's best placement and its objective breakdown.
type Result struct {
	// Place maps logical PE -> physical block index.
	Place []int
	// PeakC is the steady-state peak temperature of the placed power map.
	PeakC float64
	// CommHops is the total message-hop count of the placement.
	CommHops float64
	// Cost is PeakC + CommWeight*CommHops, the annealed objective.
	Cost float64
	// Accepted counts accepted moves, a convergence diagnostic.
	Accepted int
}

// Anneal searches for a placement minimising the combined objective.
// With Options.Restarts > 1 it runs that many independently-seeded
// searches concurrently and returns the deterministic best.
func Anneal(p *Problem, opts Options) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	opts.setDefaults()
	if opts.Initial != nil {
		n := p.Grid.N()
		if len(opts.Initial) != n {
			return Result{}, fmt.Errorf("place: initial placement has %d entries for %d PEs",
				len(opts.Initial), n)
		}
		seen := make([]bool, n)
		for _, b := range opts.Initial {
			if b < 0 || b >= n || seen[b] {
				return Result{}, fmt.Errorf("place: initial placement is not a bijection")
			}
			seen[b] = true
		}
	}
	if opts.Restarts <= 1 {
		return annealOnce(p, opts, opts.Seed), nil
	}

	// Independent restarts on a bounded pool. Every restart is a pure
	// function of (problem, options, seed), results land in a slice
	// indexed by restart, and the winner is chosen by a deterministic
	// scan — so the outcome cannot depend on worker count or scheduling.
	results := make([]Result, opts.Restarts)
	workers := min(opts.Parallel, opts.Restarts)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = annealOnce(p, opts, opts.Seed+int64(i))
			}
		}()
	}
	for i := range results {
		next <- i
	}
	close(next)
	wg.Wait()

	best := 0
	for i := 1; i < len(results); i++ {
		// Strict inequality keeps the lowest seed on ties.
		if results[i].Cost < results[best].Cost {
			best = i
		}
	}
	return results[best], nil
}

// annealOnce is one simulated-annealing search from one seed. The caller
// has validated the problem and the initial placement.
func annealOnce(p *Problem, opts Options, seed int64) Result {
	annealRuns.Add(1)
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
	obj := newObjective(p)
	curCost, bestPeak, bestHops := obj.eval(cur)
	curHops := bestHops
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
		cost, peak, hops := obj.evalSwap(cur, i, j, curHops)
		if cost <= curCost || rng.Float64() < math.Exp((curCost-cost)/temp) {
			curCost, curHops = cost, hops
			accepted++
			if cost < bestCost {
				bestCost, bestPeak, bestHops = cost, peak, hops
				copy(best, cur)
			}
		} else {
			cur[i], cur[j] = cur[j], cur[i] // revert
		}
		temp *= cool
	}

	return Result{
		Place:    best,
		PeakC:    bestPeak,
		CommHops: bestHops,
		Cost:     bestCost,
		Accepted: accepted,
	}
}

// objective is the annealed cost of one problem. The grid distances it
// needs are tabulated once per search, so each of the tens of thousands of
// proposals costs the influence mat-vec plus table lookups, with no
// allocation and no coordinate arithmetic.
type objective struct {
	p *Problem
	// placed is the reusable permuted power map.
	placed []float64
	// hops[a*n+b] is the Manhattan distance between blocks a and b; nil
	// when the communication term is off.
	hops []float64
	// ioHops[b] is block b's distance to the I/O interface; nil when the
	// I/O term is off.
	ioHops []float64
}

func newObjective(p *Problem) *objective {
	n := p.Grid.N()
	o := &objective{p: p, placed: make([]float64, n)}
	if p.Traffic != nil && p.CommWeight > 0 {
		o.hops = make([]float64, n*n)
		for a := 0; a < n; a++ {
			ca := p.Grid.Coord(a)
			for b := 0; b < n; b++ {
				o.hops[a*n+b] = float64(ca.Manhattan(p.Grid.Coord(b)))
			}
		}
	}
	if p.IOTraffic != nil && p.IOWeight > 0 {
		o.ioHops = make([]float64, n)
		for b := range o.ioHops {
			o.ioHops[b] = float64(p.IOCoord.Manhattan(p.Grid.Coord(b)))
		}
	}
	return o
}

// eval returns a placement's cost, its peak temperature and its
// message-hops. Cost is peak + CommWeight*hops + IOWeight*(I/O
// message-hops); each hop sum adds volume times distance in logical-PE
// order, every unordered pair counted once from the symmetric matrix.
//
//hotnoc:noalloc
func (o *objective) eval(place []int) (cost, peak, hops float64) {
	if o.hops != nil {
		n := len(place)
		for i, row := range o.p.Traffic {
			hi := o.hops[place[i]*n:][:n]
			for j := i + 1; j < n; j++ {
				if t := row[j]; t != 0 {
					hops += float64(t) * hi[place[j]]
				}
			}
		}
	}
	cost, peak = o.withHops(place, hops)
	return cost, peak, hops
}

// evalSwap returns what eval(place) returns, for a place that differs
// from a placement with hop sum curHops by the exchange of entries i and
// j (already made). Only the pairs holding logical PE i or j change
// distance, so the hop sum moves by
//
//	Σ_{k≠i,j} (t_ik - t_jk) · (d(place[i], place[k]) - d(place[j], place[k]))
//
// and the pair (i, j) keeps its distance. This costs one pass over two
// traffic rows instead of eval's pass over the whole upper triangle.
//
// The result is eval's to the bit. Every term of either sum is an
// integer, and Problem.Validate bounds Σ t over the whole matrix times
// the grid diameter below 2^53, which bounds every partial sum of both:
// each is an exactly represented integer, so both produce the exact hop
// sum whatever the order of the additions.
//
//hotnoc:noalloc
func (o *objective) evalSwap(place []int, i, j int, curHops float64) (cost, peak, hops float64) {
	if o.hops != nil {
		n := len(place)
		hi := o.hops[place[i]*n:][:n]
		hj := o.hops[place[j]*n:][:n]
		ti, tj := o.p.Traffic[i][:n], o.p.Traffic[j][:n]
		delta := 0.0
		for k, b := range place {
			if t := ti[k] - tj[k]; t != 0 && k != i && k != j {
				delta += float64(t) * (hi[b] - hj[b])
			}
		}
		hops = curHops + delta
	}
	cost, peak = o.withHops(place, hops)
	return cost, peak, hops
}

// withHops completes eval and evalSwap: it returns the cost and peak
// temperature of a placement with hop sum hops.
//
//hotnoc:noalloc
func (o *objective) withHops(place []int, hops float64) (cost, peak float64) {
	p := o.p
	power.PermuteInto(o.placed, p.PEPower, place)
	peak = p.Inf.PeakTemp(o.placed)
	cost = peak + p.CommWeight*hops
	if o.ioHops != nil {
		io := 0.0
		for i, v := range p.IOTraffic {
			if v != 0 {
				io += float64(v) * o.ioHops[place[i]]
			}
		}
		cost += p.IOWeight * io
	}
	return cost, peak
}
