package noc

import (
	"math/bits"

	"hotnoc/internal/geom"
)

// fifo is a fixed-capacity flit FIFO implemented as a ring buffer; input
// buffers are the only queues inside a router.
type fifo struct {
	slots []Flit
	head  int
	n     int
}

func (q *fifo) full() bool  { return q.n == len(q.slots) }
func (q *fifo) empty() bool { return q.n == 0 }
func (q *fifo) front() Flit { return q.slots[q.head] }

//hotnoc:noalloc
func (q *fifo) push(f Flit) {
	if q.full() {
		panic("noc: push to full fifo (flow control broken)")
	}
	i := q.head + q.n
	if i >= len(q.slots) {
		i -= len(q.slots)
	}
	q.slots[i] = f
	q.n++
}

//hotnoc:noalloc
func (q *fifo) pop() Flit {
	if q.empty() {
		panic("noc: pop from empty fifo")
	}
	f := q.slots[q.head]
	q.slots[q.head] = Flit{}
	if q.head++; q.head == len(q.slots) {
		q.head = 0
	}
	q.n--
	return f
}

// inPort is one input port: a FIFO plus the wormhole route state of the
// packet currently flowing through it.
type inPort struct {
	buf fifo
	// route is the output port allocated to the in-flight worm.
	route Dir
	// holding is true while a worm's flits still follow route.
	holding bool
}

// outPort is a one-deep output latch feeding the link to the neighbour
// (or the ejection path for Local).
type outPort struct {
	flit  Flit
	valid bool
	// owner is the input port whose worm currently owns this output;
	// ownership starts at head grant and ends when the tail traverses.
	owner Dir
	owned bool
	// rr is the round-robin arbitration pointer over input ports.
	rr Dir
}

// noRequest marks an input port that requests no output this cycle.
const noRequest Dir = -1

// router is one mesh node. All state transitions happen inside
// Network.Step in a fixed phase order, so routers need no goroutines and
// the simulation is bit-reproducible.
type router struct {
	coord geom.Coord
	// nb[d] is the index of the neighbouring router in direction d, or -1
	// off the mesh edge (XY routing never sends a flit there).
	nb  [numDirs]int
	in  [numDirs]inPort
	out [numDirs]outPort
	// buffered counts flits in the input buffers and latched the valid
	// output latches; a phase that finds its count at zero drops the
	// router from the Network's active set.
	buffered int
	latched  int
	// reqs caches every input's request: bit in of reqs[o] is set when
	// input in requests output o. An input's request changes only when
	// its front flit does: on a push into its empty FIFO (accept) and on
	// a pop, after which switch allocation moves its bit.
	reqs [numDirs]uint8
}

// accept pushes f into input d's FIFO. A flit that becomes the front
// sets the port's cached request; behind a front flit it changes none.
//
//hotnoc:noalloc
func (r *router) accept(d Dir, f Flit) {
	ip := &r.in[d]
	ip.buf.push(f)
	r.buffered++
	if ip.buf.n == 1 {
		r.reqs[r.request(d)] |= 1 << d
	}
}

// request returns the output port the front flit of input in asks for,
// or noRequest when its buffer is empty. A worm in progress follows its
// allocated route; a head flit computes its XY route.
//
//hotnoc:noalloc
func (r *router) request(in Dir) Dir {
	ip := &r.in[in]
	if ip.buf.empty() {
		return noRequest
	}
	if ip.holding {
		return ip.route
	}
	f := ip.buf.front()
	if !f.IsHead() {
		// A body flit with no route state means the head was
		// mis-sequenced; impossible by construction.
		panic("noc: body flit at port head without route state")
	}
	return routeXY(r.coord, f.Pkt.Dst)
}

// arbitrate runs one round of switch allocation for output port o given
// the mask of inputs requesting it, returning the winning input port and
// whether anyone won. Round-robin starts after the previous winner,
// giving each input fair access — the same policy for every router keeps
// migration timing deterministic.
//
//hotnoc:noalloc
func (op *outPort) arbitrate(reqs uint8) (Dir, bool) {
	if op.owned {
		// Wormhole continuity: only the owner may use the port.
		return op.owner, reqs&(1<<op.owner) != 0
	}
	if reqs == 0 {
		return 0, false
	}
	// Rotate the mask so that the input after the pointer is bit 0; the
	// lowest set bit is then the first requester in round-robin order.
	s := uint(op.rr) + 1
	if s == uint(numDirs) {
		s = 0
	}
	m := uint(reqs)
	rot := (m>>s | m<<(uint(numDirs)-s)) & (1<<numDirs - 1)
	w := Dir(s) + Dir(bits.TrailingZeros(rot))
	if w >= numDirs {
		w -= numDirs
	}
	op.rr = w
	return w, true
}
