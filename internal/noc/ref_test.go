package noc

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hotnoc/internal/geom"
	"hotnoc/internal/power"
)

// refNet is the straightforward cycle kernel the activity-driven Network
// must reproduce exactly: it scans every router, output and input port
// every cycle, evaluates switch requests lazily through a per-port closure
// and queues one Flit per flit at the NIs. It exists only as a
// differential oracle.
type refNet struct {
	grid    geom.Grid
	cfg     Config
	routers []refRouter
	nis     []refNI

	cycle    int64
	act      *power.Activity
	stats    Stats
	deliver  func(pkt *Packet)
	inflight int64
}

type refNI struct {
	queue      []Flit
	reassembly *Packet
}

type refFifo struct {
	slots []Flit
	head  int
	n     int
}

func (q *refFifo) full() bool  { return q.n == len(q.slots) }
func (q *refFifo) empty() bool { return q.n == 0 }
func (q *refFifo) front() Flit { return q.slots[q.head] }

func (q *refFifo) push(f Flit) {
	if q.full() {
		panic("ref: push to full fifo")
	}
	q.slots[(q.head+q.n)%len(q.slots)] = f
	q.n++
}

func (q *refFifo) pop() Flit {
	if q.empty() {
		panic("ref: pop from empty fifo")
	}
	f := q.slots[q.head]
	q.slots[q.head] = Flit{}
	q.head = (q.head + 1) % len(q.slots)
	q.n--
	return f
}

type refRouter struct {
	in [numDirs]struct {
		buf     refFifo
		route   Dir
		holding bool
	}
	out [numDirs]struct {
		flit  Flit
		valid bool
		owner Dir
		owned bool
		rr    Dir
	}
}

func newRefNet(g geom.Grid, cfg Config) *refNet {
	cfg = cfg.withDefaults()
	n := &refNet{
		grid:    g,
		cfg:     cfg,
		routers: make([]refRouter, g.N()),
		nis:     make([]refNI, g.N()),
		act:     power.NewActivity(g.N()),
	}
	for i := range n.routers {
		for d := range n.routers[i].in {
			n.routers[i].in[d].buf.slots = make([]Flit, cfg.BufDepth)
		}
	}
	return n
}

func (n *refNet) send(pkt *Packet) error {
	q := &n.nis[n.grid.Index(pkt.Src)]
	if n.cfg.InjectCap > 0 && len(q.queue)+pkt.NFlits > n.cfg.InjectCap {
		return fmt.Errorf("ref: injection queue full at %v", pkt.Src)
	}
	pkt.InjectCycle = n.cycle
	for s := 0; s < pkt.NFlits; s++ {
		q.queue = append(q.queue, Flit{Pkt: pkt, Seq: s})
	}
	n.stats.PacketsSent++
	n.stats.FlitsInjected += int64(pkt.NFlits)
	n.inflight += int64(pkt.NFlits)
	return nil
}

func (n *refNet) step() {
	n.eject()
	n.linkTraversal()
	n.switchAllocTraversal()
	n.inject()
	n.cycle++
	n.stats.Cycles++
}

func (n *refNet) eject() {
	for i := range n.routers {
		op := &n.routers[i].out[Local]
		if !op.valid {
			continue
		}
		f := op.flit
		op.valid = false
		n.inflight--
		sink := &n.nis[i]
		if f.IsHead() {
			if sink.reassembly != nil {
				panic("ref: interleaved worms at ejection")
			}
			sink.reassembly = f.Pkt
		} else if sink.reassembly != f.Pkt {
			panic("ref: body flit of a foreign worm at ejection")
		}
		if f.IsTail() {
			pkt := f.Pkt
			sink.reassembly = nil
			pkt.EjectCycle = n.cycle
			n.stats.PacketsDelivered++
			n.stats.FlitsDelivered += int64(pkt.NFlits)
			if lat := pkt.Latency(); lat > n.stats.LatencyMax {
				n.stats.LatencyMax = lat
			}
			n.stats.LatencySum += pkt.Latency()
			if n.deliver != nil {
				n.deliver(pkt)
			}
		}
	}
}

func (n *refNet) linkTraversal() {
	for i := range n.routers {
		r := &n.routers[i]
		for d := North; d < numDirs; d++ {
			op := &r.out[d]
			if !op.valid {
				continue
			}
			nbIdx := n.grid.Index(n.grid.Coord(i).Add(d.offset()))
			in := &n.routers[nbIdx].in[d.Opposite()]
			if in.buf.full() {
				continue
			}
			in.buf.push(op.flit)
			op.valid = false
			n.act.Link[i]++
			n.act.BufWrites[nbIdx]++
		}
	}
}

func (n *refNet) switchAllocTraversal() {
	for i := range n.routers {
		r := &n.routers[i]
		cur := n.grid.Coord(i)
		for o := Dir(0); o < numDirs; o++ {
			op := &r.out[o]
			if op.valid {
				continue
			}
			req := func(in Dir) bool {
				ip := &r.in[in]
				if ip.buf.empty() {
					return false
				}
				f := ip.buf.front()
				if ip.holding {
					return ip.route == o
				}
				if !f.IsHead() {
					panic("ref: body flit at port head without route state")
				}
				return routeXY(cur, f.Pkt.Dst) == o
			}
			winner, ok := refArbitrate(&op.owned, &op.owner, &op.rr, req)
			if !ok {
				continue
			}
			n.act.Arb[i]++
			ip := &r.in[winner]
			f := ip.buf.pop()
			n.act.BufReads[i]++
			n.act.Xbar[i]++
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
		}
	}
}

func refArbitrate(owned *bool, owner, rr *Dir, request func(in Dir) bool) (Dir, bool) {
	if *owned {
		if request(*owner) {
			return *owner, true
		}
		return 0, false
	}
	for k := 1; k <= int(numDirs); k++ {
		cand := Dir((int(*rr) + k) % int(numDirs))
		if request(cand) {
			*rr = cand
			return cand, true
		}
	}
	return 0, false
}

func (n *refNet) inject() {
	for i := range n.routers {
		q := &n.nis[i]
		if len(q.queue) == 0 {
			q.queue = nil
			continue
		}
		buf := &n.routers[i].in[Local].buf
		if !buf.full() {
			buf.push(q.queue[0])
			n.act.BufWrites[i]++
			q.queue = q.queue[1:]
		}
	}
}

// flitID names a flit by packet ID and sequence number, so the states of
// two networks carrying equal-ID copies of the same traffic compare equal.
type flitID struct {
	ID  uint64
	Seq int
}

func idOf(f Flit) flitID { return flitID{f.Pkt.ID, f.Seq} }

// portState is the architecturally visible state of one router port pair.
// Route and owner are recorded only while they are live (holding / owned):
// stale values are never read by either kernel.
type portState struct {
	Buf     []flitID
	Route   Dir
	Holding bool
	Latch   *flitID
	Owner   Dir
	Owned   bool
	RR      Dir
}

// netState is the complete observable state of a network after a cycle.
type netState struct {
	Cycle      int64
	Inflight   int64
	Stats      Stats
	Act        power.Activity
	Ports      [][numDirs]portState
	Queued     [][]flitID
	Reassembly []uint64
}

func latchState(ps *portState, valid bool, f Flit, owned bool, owner, rr Dir) {
	if valid {
		id := idOf(f)
		ps.Latch = &id
	}
	if owned {
		ps.Owner, ps.Owned = owner, true
	}
	ps.RR = rr
}

// copyActivity snapshots an activity record's counters.
func copyActivity(a *power.Activity) power.Activity {
	return power.Activity{
		BufWrites: slices.Clone(a.BufWrites), BufReads: slices.Clone(a.BufReads),
		Xbar: slices.Clone(a.Xbar), Arb: slices.Clone(a.Arb), Link: slices.Clone(a.Link),
		PEOps: slices.Clone(a.PEOps), ConvWords: slices.Clone(a.ConvWords),
	}
}

func reassemblyID(p *Packet) uint64 {
	if p == nil {
		return 0
	}
	return p.ID
}

func (n *refNet) state() netState {
	s := netState{Cycle: n.cycle, Inflight: n.inflight, Stats: n.stats, Act: copyActivity(n.act)}
	for i := range n.routers {
		r := &n.routers[i]
		var ports [numDirs]portState
		for d := range ports {
			ip := &r.in[d]
			b := ip.buf
			for k := 0; k < b.n; k++ {
				ports[d].Buf = append(ports[d].Buf, idOf(b.slots[(b.head+k)%len(b.slots)]))
			}
			if ip.holding {
				ports[d].Route, ports[d].Holding = ip.route, true
			}
			op := &r.out[d]
			latchState(&ports[d], op.valid, op.flit, op.owned, op.owner, op.rr)
		}
		s.Ports = append(s.Ports, ports)
		var q []flitID
		for _, f := range n.nis[i].queue {
			q = append(q, idOf(f))
		}
		s.Queued = append(s.Queued, q)
		s.Reassembly = append(s.Reassembly, reassemblyID(n.nis[i].reassembly))
	}
	return s
}

func (n *Network) state() netState {
	st := n.Stats
	st.SkippedCycles = 0 // the oracle never fast-forwards
	s := netState{Cycle: n.Cycle, Inflight: n.inflight, Stats: st, Act: copyActivity(n.Act)}
	for i := range n.routers {
		r := &n.routers[i]
		var ports [numDirs]portState
		buffered, latched := 0, 0
		for d := range ports {
			ip := &r.in[d]
			for o := Dir(0); o < numDirs; o++ {
				if cached := r.reqs[o]&(1<<d) != 0; cached != (r.request(Dir(d)) == o) {
					panic(fmt.Sprintf("router %d input %v: cached request for %v is %v, request says %v",
						i, Dir(d), o, cached, r.request(Dir(d))))
				}
			}
			b := ip.buf
			for k := 0; k < b.n; k++ {
				ports[d].Buf = append(ports[d].Buf, idOf(b.slots[(b.head+k)%len(b.slots)]))
			}
			buffered += b.n
			if ip.holding {
				ports[d].Route, ports[d].Holding = ip.route, true
			}
			op := &r.out[d]
			if op.valid {
				latched++
			}
			latchState(&ports[d], op.valid, op.flit, op.owned, op.owner, op.rr)
		}
		if buffered != r.buffered || latched != r.latched {
			panic(fmt.Sprintf("router %d: %d buffered / %d latched, counters say %d / %d",
				i, buffered, latched, r.buffered, r.latched))
		}
		if (buffered > 0 && !hasBit(n.bufSet, i)) || (latched > 0 && !hasBit(n.latSet, i)) {
			panic(fmt.Sprintf("router %d: %d buffered / %d latched but missing from the active sets", i, buffered, latched))
		}
		s.Ports = append(s.Ports, ports)
		q := &n.nis[i]
		var flits []flitID
		seq := q.seq
		for _, p := range q.pkts[q.head:] {
			for ; seq < p.NFlits; seq++ {
				flits = append(flits, flitID{p.ID, seq})
			}
			seq = 0
		}
		if len(flits) != q.flits {
			panic(fmt.Sprintf("NI %d: %d flits queued, counter says %d", i, len(flits), q.flits))
		}
		if q.flits > 0 && !hasBit(n.niSet, i) {
			panic(fmt.Sprintf("NI %d: %d flits queued but missing from the active set", i, q.flits))
		}
		s.Queued = append(s.Queued, flits)
		s.Reassembly = append(s.Reassembly, reassemblyID(q.reassembly))
	}
	return s
}

// hasBit reports whether element i is in the bitset s.
func hasBit(s []uint64, i int) bool { return s[i>>6]&(1<<(i&63)) != 0 }

// delivery records one packet handed to a Deliver callback.
type delivery struct {
	ID    uint64
	Eject int64
}

// oracleCase is one traffic scenario for the differential test.
type oracleCase struct {
	name     string
	w, h     int
	cfg      Config
	pattern  Pattern
	rate     float64
	maxFlits int // worm lengths are drawn from 1..maxFlits
	// burst, when nonzero, injects only in the first burst cycles of
	// every burst+idle: short bursts on a mesh left to drain in between,
	// so routers leave the active sets and rejoin them. By default
	// traffic alternates 100 cycles on and 100 off.
	burst, idle int
}

// TestStepMatchesReference drives the activity-driven kernel and the
// reference kernel with identical traffic and requires their complete
// state, activity and statistics to agree after every cycle — including
// across Run calls that fast-forward the idle tail of a busy span.
func TestStepMatchesReference(t *testing.T) {
	cases := []oracleCase{
		{"uniform-4x4-1flit-depth4", 4, 4, Config{}, UniformRandom, 0.3, 1, 0, 0},
		{"uniform-5x5-worms-depth1", 5, 5, Config{BufDepth: 1}, UniformRandom, 0.12, 6, 0, 0},
		{"uniform-5x5-worms-depth4", 5, 5, Config{}, UniformRandom, 0.2, 8, 0, 0},
		{"transpose-5x5-worms-depth4", 5, 5, Config{}, Transpose, 0.4, 5, 0, 0},
		{"transpose-4x4-1flit-depth1", 4, 4, Config{BufDepth: 1}, Transpose, 0.6, 1, 0, 0},
		{"hotspot-5x5-worms-depth4", 5, 5, Config{}, HotspotPattern(geom.Coord{X: 2, Y: 2}, 0.5), 0.15, 4, 0, 0},
		{"hotspot-4x4-capped-depth1", 4, 4, Config{BufDepth: 1, InjectCap: 8}, HotspotPattern(geom.Coord{X: 0, Y: 3}, 0.6), 0.25, 4, 0, 0},
		// Meshes over 64 routers span two bitset words, and a non-square
		// one breaks any assumption that rows and columns agree.
		{name: "uniform-9x9-worms-depth4", w: 9, h: 9, pattern: UniformRandom, rate: 0.15, maxFlits: 6},
		{name: "hotspot-12x6-worms-depth2", w: 12, h: 6, cfg: Config{BufDepth: 2},
			pattern: HotspotPattern(geom.Coord{X: 11, Y: 5}, 0.4), rate: 0.1, maxFlits: 5},
		{name: "uniform-9x9-burst-idle-depth1", w: 9, h: 9, cfg: Config{BufDepth: 1},
			pattern: UniformRandom, rate: 0.5, maxFlits: 4, burst: 3, idle: 40},
		{name: "uniform-12x6-burst-idle-depth4", w: 12, h: 6, pattern: UniformRandom,
			rate: 0.6, maxFlits: 8, burst: 2, idle: 25},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runOracle(t, tc) })
	}
}

func runOracle(t *testing.T, tc oracleCase) {
	g := geom.NewGrid(tc.w, tc.h)
	ref := newRefNet(g, tc.cfg)
	net, err := New(g, tc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	var refGot, netGot []delivery
	ref.deliver = func(p *Packet) { refGot = append(refGot, delivery{p.ID, p.EjectCycle}) }
	net.Deliver = func(p *Packet) { netGot = append(netGot, delivery{p.ID, p.EjectCycle}) }

	check := func(where string) {
		t.Helper()
		want, got := ref.state(), net.state()
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s, cycle %d: state diverged\nref: %+v\nnet: %+v", where, ref.cycle, want, got)
		}
		if !reflect.DeepEqual(refGot, netGot) {
			t.Fatalf("%s, cycle %d: deliveries diverged\nref: %v\nnet: %v", where, ref.cycle, refGot, netGot)
		}
	}

	rng := rand.New(rand.NewSource(1))
	var id uint64
	const trafficCycles = 600
	for c := 0; c < trafficCycles; c++ {
		// Quiet spells let the fabric drain mid-run so Run's fast-forward
		// is exercised on both busy and idle tails.
		active := (c/100)%2 == 0
		if tc.burst > 0 {
			active = c%(tc.burst+tc.idle) < tc.burst
		}
		if active {
			for _, src := range g.Coords() {
				if rng.Float64() >= tc.rate {
					continue
				}
				dst, ok := tc.pattern(rng, g, src)
				if !ok {
					continue
				}
				id++
				nf := 1 + rng.Intn(tc.maxFlits)
				errRef := ref.send(&Packet{ID: id, Src: src, Dst: dst, NFlits: nf})
				errNet := net.Send(&Packet{ID: id, Src: src, Dst: dst, NFlits: nf})
				if (errRef == nil) != (errNet == nil) {
					t.Fatalf("cycle %d: send %d accepted differently: ref %v, net %v", c, id, errRef, errNet)
				}
			}
		}
		if c%50 == 49 {
			k := int64(1 + rng.Intn(40))
			for i := int64(0); i < k; i++ {
				ref.step()
			}
			net.Run(k)
			check(fmt.Sprintf("after Run(%d)", k))
			continue
		}
		ref.step()
		net.Step()
		check("after Step")
	}
	for guard := 0; ref.inflight > 0; guard++ {
		if guard > 100000 {
			t.Fatal("reference failed to drain")
		}
		ref.step()
		net.Step()
		check("draining")
	}
	if net.Busy() {
		t.Fatal("network busy after the reference drained")
	}
	if ref.stats.PacketsDelivered == 0 {
		t.Fatal("scenario delivered no packets")
	}
}

// TestRunIdleEqualsSteps: Run(k) on an idle network is indistinguishable
// from k Steps, except that it reports the span as skipped.
func TestRunIdleEqualsSteps(t *testing.T) {
	g := geom.NewGrid(5, 5)
	stepped, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ran, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*Network{stepped, ran} {
		// Leave arbitration pointers and activity off their zero values.
		if err := n.Send(&Packet{ID: 1, Src: geom.Coord{}, Dst: geom.Coord{X: 4, Y: 3}, NFlits: 3}); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Drain(1000); err != nil {
			t.Fatal(err)
		}
	}
	const k = 1234
	for i := 0; i < k; i++ {
		stepped.Step()
	}
	ran.Run(k)
	if !reflect.DeepEqual(stepped.state(), ran.state()) {
		t.Fatalf("Run(%d) differs from %d Steps:\n%+v\n%+v", k, k, ran.state(), stepped.state())
	}
	if ran.Stats.SkippedCycles != k || stepped.Stats.SkippedCycles != 0 {
		t.Fatalf("skipped cycles: Run %d, Steps %d; want %d and 0",
			ran.Stats.SkippedCycles, stepped.Stats.SkippedCycles, k)
	}
	if ran.Stats.Cycles != stepped.Stats.Cycles || ran.Cycle != stepped.Cycle {
		t.Fatalf("clock: Run %d/%d, Steps %d/%d", ran.Cycle, ran.Stats.Cycles, stepped.Cycle, stepped.Stats.Cycles)
	}
}
