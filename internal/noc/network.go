package noc

import (
	"fmt"

	"hotnoc/internal/geom"
	"hotnoc/internal/power"
)

// Stats aggregates network-level performance counters for one run window.
type Stats struct {
	PacketsSent      int64
	PacketsDelivered int64
	FlitsInjected    int64
	FlitsDelivered   int64
	LatencySum       int64
	LatencyMax       int64
	// Cycles counts every simulated cycle: stepped, fast-forwarded or
	// replayed.
	Cycles int64
	// SkippedCycles counts the cycles among Cycles that Run advanced over
	// an idle fabric without stepping, and ReplayedCycles those that
	// Replay applied from a recorded Window;
	// Cycles-SkippedCycles-ReplayedCycles were stepped. Both are host-side
	// bookkeeping, not simulated quantities.
	SkippedCycles  int64
	ReplayedCycles int64
}

// AvgLatency returns the mean packet latency in cycles.
func (s Stats) AvgLatency() float64 {
	if s.PacketsDelivered == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.PacketsDelivered)
}

// Throughput returns delivered flits per cycle.
func (s Stats) Throughput() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.FlitsDelivered) / float64(s.Cycles)
}

// ni is the network interface of one PE: an injection queue of whole
// worms, cut into flits one per cycle as the Local input buffer accepts
// them, and the reassembly state of the worm currently being ejected.
type ni struct {
	pkts  []*Packet // queued worms; pkts[head] is being injected
	head  int
	seq   int // next flit of pkts[head]
	flits int // flits queued and not yet injected

	reassembly *Packet
}

// push queues a worm, reclaiming the consumed prefix of the queue before
// growing it.
func (q *ni) push(p *Packet) {
	if q.head > 0 && len(q.pkts) == cap(q.pkts) {
		k := copy(q.pkts, q.pkts[q.head:])
		clear(q.pkts[k:])
		q.pkts, q.head = q.pkts[:k], 0
	}
	q.pkts = append(q.pkts, p)
	q.flits += p.NFlits
}

// next cuts the next flit off the front worm.
//
//hotnoc:noalloc
func (q *ni) next() Flit {
	p := q.pkts[q.head]
	f := Flit{Pkt: p, Seq: q.seq}
	q.flits--
	if q.seq++; q.seq == p.NFlits {
		q.pkts[q.head] = nil
		q.head++
		q.seq = 0
		if q.head == len(q.pkts) {
			q.pkts, q.head = q.pkts[:0], 0
		}
	}
	return f
}

// Network is the cycle-accurate mesh simulator.
type Network struct {
	Grid geom.Grid
	Cfg  Config

	routers []router
	nis     []ni

	// Cycle is the current simulation cycle.
	Cycle int64
	// Act counts switching events per block for the power model.
	Act *power.Activity
	// Stats holds the performance counters.
	Stats Stats

	// Deliver, when non-nil, receives each packet as its tail flit leaves
	// the destination NI.
	Deliver func(pkt *Packet)

	inflight int64
	nextID   uint64
}

// New builds a network over grid g.
func New(g geom.Grid, cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		Grid:    g,
		Cfg:     cfg,
		routers: make([]router, g.N()),
		nis:     make([]ni, g.N()),
		Act:     power.NewActivity(g.N()),
	}
	for i := range n.routers {
		r := &n.routers[i]
		r.pos = i
		r.coord = g.Coord(i)
		for d := Dir(0); d < numDirs; d++ {
			r.in[d].buf = newFifo(cfg.BufDepth)
			r.nb[d] = -1
			if c := r.coord.Add(d.offset()); g.Contains(c) {
				r.nb[d] = g.Index(c)
			}
		}
	}
	return n, nil
}

// NextID allocates a fresh packet ID.
func (n *Network) NextID() uint64 {
	n.nextID++
	return n.nextID
}

// IDs returns how many packet IDs NextID and TakeIDs have allocated.
func (n *Network) IDs() uint64 { return n.nextID }

// TakeIDs allocates k packet IDs at once, as k NextID calls would; a
// caller replaying traffic it does not send keeps the IDs of later
// packets unchanged with it.
//
//hotnoc:noalloc
func (n *Network) TakeIDs(k uint64) { n.nextID += k }

// Send enqueues a packet for injection at its source NI. The packet is
// stamped with the current cycle; flits enter the router as buffer space
// allows. Send fails if the source or destination is off-grid, the worm
// length is invalid, or a bounded injection queue is full.
func (n *Network) Send(pkt *Packet) error {
	if !n.Grid.Contains(pkt.Src) || !n.Grid.Contains(pkt.Dst) {
		return fmt.Errorf("noc: packet %d endpoints %v->%v outside %dx%d grid",
			pkt.ID, pkt.Src, pkt.Dst, n.Grid.W, n.Grid.H)
	}
	if pkt.NFlits < 1 {
		return fmt.Errorf("noc: packet %d has %d flits", pkt.ID, pkt.NFlits)
	}
	q := &n.nis[n.Grid.Index(pkt.Src)]
	if n.Cfg.InjectCap > 0 && q.flits+pkt.NFlits > n.Cfg.InjectCap {
		return fmt.Errorf("noc: injection queue full at %v", pkt.Src)
	}
	pkt.InjectCycle = n.Cycle
	q.push(pkt)
	n.Stats.PacketsSent++
	n.Stats.FlitsInjected += int64(pkt.NFlits)
	n.inflight += int64(pkt.NFlits)
	return nil
}

// Busy reports whether any flit is still queued, buffered or latched.
func (n *Network) Busy() bool { return n.inflight > 0 }

// Step advances the network by one clock cycle. Phases run in a fixed
// order — ejection, link traversal, switch allocation/traversal,
// injection — over routers in row-major order, so runs are deterministic.
// Each phase skips routers with nothing to move.
//
//hotnoc:noalloc
func (n *Network) Step() {
	n.eject()
	n.linkTraversal()
	n.switchAllocTraversal()
	n.inject()
	n.Cycle++
	n.Stats.Cycles++
}

// Run advances the network by the given number of cycles. Once the
// fabric is idle the rest of the span is fast-forwarded: an idle cycle
// changes nothing but the clock, so the result is identical to stepping.
//
//hotnoc:noalloc
func (n *Network) Run(cycles int64) {
	for ; cycles > 0; cycles-- {
		if n.inflight == 0 {
			n.Cycle += cycles
			n.Stats.Cycles += cycles
			n.Stats.SkippedCycles += cycles
			return
		}
		n.Step()
	}
}

// Drain runs until the network is empty, up to maxCycles. It returns the
// number of cycles stepped, or an error if traffic remains — which, with
// deadlock-free XY routing, indicates an application-level sink failure.
func (n *Network) Drain(maxCycles int64) (int64, error) {
	start := n.Cycle
	for n.Busy() {
		if n.Cycle-start >= maxCycles {
			return n.Cycle - start, fmt.Errorf("noc: %d flits still in flight after %d cycles",
				n.inflight, maxCycles)
		}
		n.Step()
	}
	return n.Cycle - start, nil
}

// eject delivers flits sitting in Local output latches to their NIs.
// Ejection is always accepted: the NI is an infinite sink, which rules out
// protocol deadlock.
//
//hotnoc:noalloc
func (n *Network) eject() {
	for i := range n.routers {
		r := &n.routers[i]
		op := &r.out[Local]
		if !op.valid {
			continue
		}
		f := op.flit
		op.valid = false
		r.latched--
		n.inflight--
		sink := &n.nis[i]
		if f.IsHead() {
			if sink.reassembly != nil {
				panic("noc: interleaved worms at ejection (wormhole ownership broken)")
			}
			sink.reassembly = f.Pkt
		} else if sink.reassembly != f.Pkt {
			panic("noc: body flit of a foreign worm at ejection")
		}
		if f.IsTail() {
			pkt := f.Pkt
			sink.reassembly = nil
			pkt.EjectCycle = n.Cycle
			n.Stats.PacketsDelivered++
			n.Stats.FlitsDelivered += int64(pkt.NFlits)
			if lat := pkt.Latency(); lat > n.Stats.LatencyMax {
				n.Stats.LatencyMax = lat
			}
			n.Stats.LatencySum += pkt.Latency()
			if n.Deliver != nil {
				n.Deliver(pkt) //hotnoc:allow noalloc the sink is the caller's; the decode and migration sinks only update counters
			}
		}
	}
}

// linkTraversal moves flits from output latches into the downstream input
// buffers, subject to buffer space (credit backpressure).
//
//hotnoc:noalloc
func (n *Network) linkTraversal() {
	for i := range n.routers {
		r := &n.routers[i]
		if r.latched == 0 {
			continue
		}
		for d := North; d < numDirs; d++ {
			op := &r.out[d]
			if !op.valid {
				continue
			}
			nb := &n.routers[r.nb[d]]
			in := &nb.in[d.Opposite()]
			if in.buf.full() {
				continue // stall; retry next cycle
			}
			in.buf.push(op.flit)
			op.valid = false
			r.latched--
			nb.buffered++
			n.Act.Link[i]++
			n.Act.BufWrites[nb.pos]++
		}
	}
}

// switchAllocTraversal arbitrates each free output port among requesting
// inputs and moves the winners' front flits across the crossbar. Each
// input's requested output is computed once per cycle and recomputed only
// for a winner, whose new front flit may still win a later output in the
// same cycle (a tail followed by the next worm's head).
//
//hotnoc:noalloc
func (n *Network) switchAllocTraversal() {
	for i := range n.routers {
		r := &n.routers[i]
		if r.buffered == 0 {
			continue
		}
		var req [numDirs]Dir
		wanted := 0 // bit o set when some input requests output o
		for in := Dir(0); in < numDirs; in++ {
			req[in] = r.request(in)
			wanted |= requestBit(req[in])
		}
		for o := Dir(0); o < numDirs; o++ {
			op := &r.out[o]
			if wanted&(1<<o) == 0 || op.valid {
				continue // nobody asks, or latch occupied (downstream stalled)
			}
			winner, ok := op.arbitrate(o, &req)
			if !ok {
				continue
			}
			n.Act.Arb[i]++
			ip := &r.in[winner]
			f := ip.buf.pop()
			r.buffered--
			r.latched++
			n.Act.BufReads[i]++
			n.Act.Xbar[i]++
			op.flit = f
			op.valid = true
			if f.IsHead() {
				op.owner = winner
				op.owned = true
				ip.route = o
				ip.holding = true
			}
			if f.IsTail() {
				op.owned = false
				ip.holding = false
			}
			req[winner] = r.request(winner)
			wanted |= requestBit(req[winner])
		}
	}
}

// requestBit is the output mask bit of a request (none for noRequest).
func requestBit(o Dir) int {
	if o == noRequest {
		return 0
	}
	return 1 << o
}

// inject moves flits from NI queues into the Local input buffers, one
// flit per cycle across each NI-router interface.
//
//hotnoc:noalloc
func (n *Network) inject() {
	for i := range n.nis {
		q := &n.nis[i]
		if q.flits == 0 {
			continue
		}
		r := &n.routers[i]
		buf := &r.in[Local].buf
		if buf.full() {
			continue
		}
		buf.push(q.next())
		r.buffered++
		n.Act.BufWrites[i]++
	}
}

// ResetStats clears the performance counters and activity counters while
// leaving in-flight traffic untouched; the runtime manager calls this at
// migration-period boundaries to window the power measurement.
func (n *Network) ResetStats() {
	n.Stats = Stats{}
	n.Act.Reset()
}
