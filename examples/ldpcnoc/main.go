// ldpcnoc walks through the workload substrate on its own: it builds an
// LDPC code, partitions its Tanner graph across a 4x4 mesh, decodes noisy
// blocks with the reference min-sum decoder, and runs each block's decoder
// traffic cycle-accurately on the NoC for its duration and network load.
// The NoC engine carries no message values: its traffic does not depend
// on them. That the distributed mapping decodes bit-exactly like the
// reference decoder is pinned by internal/appmap's oracle tests
// (TestDistributedMatchesReference on the value-carrying RefEngine, and
// TestTrafficMatchesValueOracle tying the engine to it).
//
//	go run ./examples/ldpcnoc
package main

import (
	"fmt"
	"log"
	"math/rand"

	"hotnoc/internal/appmap"
	"hotnoc/internal/geom"
	"hotnoc/internal/ldpc"
	"hotnoc/internal/noc"
)

func main() {
	// A (3,6)-regular LDPC code: 960 variables, 480 checks.
	code, err := ldpc.NewRegular(960, 480, 3, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("code: n=%d k=%d rate %.2f, %d Tanner edges\n",
		code.N, code.K(), code.Rate(), code.Edges())

	// Partition the graph over 16 PEs with a compute skew: 3 heavy PEs own
	// half the checks, mimicking the paper's irregular configurations.
	part, err := appmap.Skewed(code, 16, 3, 0.5, 11)
	if err != nil {
		log.Fatal(err)
	}
	ops := appmap.OpsPerPE(code, part)
	lo, hi := minMax(ops)
	fmt.Printf("per-PE ops/iteration: min %d max %d (skewed partition)\n", lo, hi)

	grid := geom.NewGrid(4, 4)
	net, err := noc.New(grid, noc.Config{BufDepth: 4})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := appmap.NewEngine(code, part, net)
	if err != nil {
		log.Fatal(err)
	}
	eng.MaxIter = 10

	ref := ldpc.NewDecoder(code)
	ref.MaxIter = 10

	ch, err := ldpc.NewChannel(2.5, code.Rate(), 13)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))

	for blk := 0; blk < 3; blk++ {
		info := make([]uint8, code.K())
		for i := range info {
			info[i] = uint8(rng.Intn(2))
		}
		cw, err := code.Encode(info)
		if err != nil {
			log.Fatal(err)
		}
		llr := ch.Transmit(cw)

		bits, _, converged := ref.Decode(llr)
		cycles, err := eng.Decode(llr)
		if err != nil {
			log.Fatal(err)
		}

		errors := 0
		for i := range bits {
			if bits[i] != cw[i] {
				errors++
			}
		}
		fmt.Printf("block %d: %d cycles on the NoC (%.1f µs at 250 MHz), converged=%v, "+
			"residual bit errors=%d\n",
			blk, cycles, float64(cycles)/250e6*1e6, converged, errors)
	}

	s := net.Stats
	fmt.Printf("\nnetwork totals: %d packets, %d flits, avg latency %.1f cycles, throughput %.2f flits/cycle\n",
		s.PacketsDelivered, s.FlitsDelivered, s.AvgLatency(), s.Throughput())
}

func minMax(v []int64) (int64, int64) {
	lo, hi := v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
