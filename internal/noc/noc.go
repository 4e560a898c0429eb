// Package noc is a cycle-accurate simulator of the paper's test-chip
// interconnect: a 2-D mesh of input-buffered wormhole routers with
// dimension-ordered (XY) routing, one router plus network interface per
// processing element. It stands in for the "modified cycle-accurate NoC
// simulator" the paper ran to obtain switching rates: every buffer access,
// crossbar traversal, arbitration and link traversal is counted per block
// and feeds the power model.
//
// Microarchitecture. Each router has five ports (Local, North, East,
// South, West) with one flit-FIFO per input port. A packet is a worm of
// flits; the head flit computes its route (XY), wins switch allocation
// (round-robin per output port), and the connection then persists until the
// tail flit passes, as in classic wormhole switching. Flits move one
// pipeline stage per cycle — switch traversal into an output latch, then
// link traversal into the downstream input buffer — and advance only when
// the downstream buffer has a free slot, which is the buffer-backpressure
// formulation of credit-based flow control. XY routing makes the channel
// dependency graph acyclic, so the network is deadlock-free; ejection is
// always accepted, preventing protocol deadlock at the NIs.
//
// Host cost follows activity, not mesh size. The network keeps three
// active sets, bitsets with one bit per router: routers that may hold
// buffered flits, routers that may hold latched flits, and NIs with
// queued flits. A bit is set wherever its count rises and cleared when a
// phase finds the count at zero, and each Step phase walks only the set
// bits, in ascending (row-major) order, so an idle router costs nothing.
// Each router also caches every input's requested output as one input
// mask per output port, updated when a flit reaches the front of an
// empty FIFO and when a winner pops; switch allocation arbitrates by
// rotating a mask and taking its lowest set bit instead of asking every
// input every cycle. Network.SteppedCycles counts the cycles stepped.
//
// Network.Run fast-forwards spans in which nothing is in flight (counted
// in Stats.SkippedCycles). An idle cycle changes nothing but the clock,
// so every cycle count, statistic and activity counter is identical to
// stepping each cycle. A span that starts and ends drained can also be
// recorded as a Window and replayed when the same traffic repeats
// (counted in Stats.ReplayedCycles). On a drained network the
// round-robin pointers are the only state later cycles can observe, and
// a span reads only those of the ports whose first arbitration in the
// span two or more inputs contest: the window records that observed set,
// and a repeat from pointers that agree on it adds exactly what stepping
// it would.
package noc

import (
	"fmt"

	"hotnoc/internal/geom"
)

// Dir enumerates router ports.
type Dir int

// Port order is fixed and gives deterministic arbitration.
const (
	Local Dir = iota
	North
	East
	South
	West
	numDirs
)

var dirNames = [numDirs]string{"Local", "North", "East", "South", "West"}

func (d Dir) String() string {
	if d < 0 || d >= numDirs {
		return fmt.Sprintf("Dir(%d)", int(d))
	}
	return dirNames[d]
}

// Opposite returns the port on the neighbouring router that faces d.
func (d Dir) Opposite() Dir {
	switch d {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	default:
		return Local
	}
}

// offset returns the coordinate delta of one hop in direction d.
func (d Dir) offset() geom.Coord {
	switch d {
	case North:
		return geom.Coord{X: 0, Y: 1}
	case South:
		return geom.Coord{X: 0, Y: -1}
	case East:
		return geom.Coord{X: 1, Y: 0}
	case West:
		return geom.Coord{X: -1, Y: 0}
	default:
		return geom.Coord{}
	}
}

// Packet is one message on the network. Its flits are generated at
// injection; Payload carries application data (e.g. a batch of LDPC
// messages) untouched by the network.
type Packet struct {
	ID       uint64
	Src, Dst geom.Coord
	// NFlits is the worm length including head and tail (minimum 1).
	NFlits  int
	Payload any

	// InjectCycle is stamped by Send, EjectCycle on tail delivery.
	InjectCycle int64
	EjectCycle  int64
}

// Latency returns the packet's in-network latency in cycles (including
// source queueing), valid after delivery.
func (p *Packet) Latency() int64 { return p.EjectCycle - p.InjectCycle }

// Flit is one link-width slice of a packet.
type Flit struct {
	Pkt *Packet
	// Seq is the flit index: 0 is the head, NFlits-1 the tail.
	Seq int
}

// IsHead and IsTail identify worm boundaries. A single-flit packet is both.
func (f Flit) IsHead() bool { return f.Seq == 0 }
func (f Flit) IsTail() bool { return f.Seq == f.Pkt.NFlits-1 }

// Config sets the router microarchitecture parameters.
type Config struct {
	// BufDepth is the input FIFO capacity in flits (default 4).
	BufDepth int
	// InjectCap bounds each NI's injection queue in flits; 0 means
	// unbounded (the LDPC PEs generate bounded bursts by construction).
	InjectCap int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.BufDepth == 0 {
		c.BufDepth = 4
	}
	return c
}

// Validate reports nonsensical parameters.
func (c Config) Validate() error {
	if c.BufDepth < 1 {
		return fmt.Errorf("noc: buffer depth %d < 1", c.BufDepth)
	}
	if c.InjectCap < 0 {
		return fmt.Errorf("noc: negative injection queue cap %d", c.InjectCap)
	}
	return nil
}

// routeXY returns the next-hop port from cur towards dst under
// dimension-ordered routing: correct X first, then Y, then eject.
func routeXY(cur, dst geom.Coord) Dir {
	switch {
	case dst.X > cur.X:
		return East
	case dst.X < cur.X:
		return West
	case dst.Y > cur.Y:
		return North
	case dst.Y < cur.Y:
		return South
	default:
		return Local
	}
}
