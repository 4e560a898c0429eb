package noc

import (
	"math/bits"

	"hotnoc/internal/power"
)

// Window records the effect of a span of simulation that starts and ends
// with nothing in flight, so that a repeat of the span can be applied
// without stepping it.
//
// On a drained network the only state that can change future cycles is
// each output port's round-robin pointer: FIFOs, output latches, worm
// ownership, route-holding flags and NI queues are empty or cleared, an
// empty FIFO's ring offset and a released input's stale route cannot be
// observed, and the absolute cycle only shifts time stamps. And a span
// reads few of those pointers. An arbitration that one input alone
// contests grants that input whatever the pointer says; a contested one
// reads either the pointer the span started with or one an earlier grant
// of the span wrote. A window therefore records which ports the span
// granted, and which it observed: those whose first grant in the span was
// contested. Sending the same packets at the same cycles relative to the
// start, from arbitration pointers that agree on the observed ports,
// reproduces the recorded span cycle for cycle (by induction over its
// arbitrations), and leaves the granted ports' pointers where the span
// left them and every other pointer where it was. Matching the traffic is
// the caller's job; Replay checks the rest.
//
// Windows nest: a recording can contain another recording or a replay,
// and the outer window observes what the inner span observed on ports
// the outer span had not granted yet.
//
// A Window's storage is reused by every recording into it.
type Window struct {
	// rr0 and rr1 are the arbitration pointers at the start and the end,
	// as SaveArbitration writes them.
	rr0, rr1 []byte
	// obs and granted hold one byte per router, bit o for output port o:
	// the ports whose start pointer the span read, and the ports whose
	// pointer it wrote.
	obs, granted []uint8
	// Between BeginWindow and EndWindow stats and act hold the snapshot
	// taken at the start; after a successful EndWindow they hold the
	// span's deltas, with stats.LatencyMax the span's own maximum and
	// stats.Cycles its length.
	stats Stats
	act   [5][]uint64

	recording bool // BeginWindow succeeded and EndWindow is pending
	ok        bool // the last recording ended idle and can be replayed
}

// nocActivity returns the activity counters the network itself updates,
// in a fixed order; PEOps and ConvWords belong to the application.
//
//hotnoc:noalloc
func nocActivity(a *power.Activity) [5][]uint64 {
	return [5][]uint64{a.BufWrites, a.BufReads, a.Xbar, a.Arb, a.Link}
}

// BeginWindow starts recording into w. It reports false, and w cannot
// be replayed, unless nothing is in flight.
//
//hotnoc:noalloc
func (n *Network) BeginWindow(w *Window) bool {
	w.recording, w.ok = false, false
	if n.inflight != 0 {
		return false
	}
	nrr, nr := n.ArbitrationLen(), len(n.routers)
	if cap(w.rr0) < nrr || cap(w.obs) < nr {
		// One allocation holds the pointer vectors and port masks, and
		// one the activity deltas.
		b := make([]byte, 2*nrr+2*nr) //hotnoc:allow noalloc amortized growth on a Window's first recording; reuse records at 0 allocs
		w.rr0, w.rr1 = b[:nrr:nrr], b[nrr:nrr:2*nrr]
		w.obs, w.granted = b[2*nrr:2*nrr+nr:2*nrr+nr], b[2*nrr+nr:]
		act := make([]uint64, len(w.act)*nr) //hotnoc:allow noalloc amortized growth on a Window's first recording; reuse records at 0 allocs
		for k := range w.act {
			w.act[k] = act[k*nr : k*nr : (k+1)*nr]
		}
	}
	w.rr0 = w.rr0[:nrr]
	n.SaveArbitration(w.rr0)
	w.obs, w.granted = w.obs[:nr], w.granted[:nr]
	clear(w.obs)
	clear(w.granted)
	for k, s := range nocActivity(n.Act) {
		w.act[k] = w.act[k][:len(s)]
		copy(w.act[k], s)
	}
	w.stats = n.Stats
	n.Stats.LatencyMax = 0 // the span's own maximum, folded back at the end
	w.recording = true
	n.windows = append(n.windows, w) //hotnoc:allow noalloc amortized growth to the deepest nesting; reuse records at 0 allocs
	return true
}

// EndWindow finishes the recording BeginWindow started. It always
// restores Stats.LatencyMax to the maximum over the run so far, and
// reports whether w can be replayed: only if the recording started and
// nothing is in flight now.
//
//hotnoc:noalloc
func (n *Network) EndWindow(w *Window) bool {
	if !w.recording {
		return false
	}
	w.recording = false
	for i := len(n.windows) - 1; i >= 0; i-- {
		if n.windows[i] == w {
			n.windows = append(n.windows[:i], n.windows[i+1:]...) //hotnoc:allow noalloc removal shrinks in place
			break
		}
	}
	own := n.Stats.LatencyMax
	n.Stats.LatencyMax = max(w.stats.LatencyMax, own)
	if n.inflight != 0 {
		return false
	}
	if cap(w.rr1) < len(w.rr0) {
		w.rr1 = make([]byte, len(w.rr0)) //hotnoc:allow noalloc amortized growth on a Window's first recording; reuse records at 0 allocs
	}
	w.rr1 = w.rr1[:len(w.rr0)]
	n.SaveArbitration(w.rr1)
	s, b := &n.Stats, w.stats
	w.stats = Stats{
		PacketsSent:      s.PacketsSent - b.PacketsSent,
		PacketsDelivered: s.PacketsDelivered - b.PacketsDelivered,
		FlitsInjected:    s.FlitsInjected - b.FlitsInjected,
		FlitsDelivered:   s.FlitsDelivered - b.FlitsDelivered,
		LatencySum:       s.LatencySum - b.LatencySum,
		LatencyMax:       own,
		Cycles:           s.Cycles - b.Cycles,
		SkippedCycles:    s.SkippedCycles - b.SkippedCycles,
		ReplayedCycles:   s.ReplayedCycles - b.ReplayedCycles,
	}
	for k, a := range nocActivity(n.Act) {
		d := w.act[k]
		for i := range d {
			d[i] = a[i] - d[i]
		}
	}
	w.ok = true
	return true
}

// Replay applies a recorded window as if its span had been stepped again:
// it advances the clock, adds the statistics and activity deltas, folds
// in the span's maximum latency and sets the pointers of the ports the
// span granted where the span left them. The replayed cycles count in
// Stats.ReplayedCycles. Replay reports false and changes nothing unless
// w was recorded, nothing is in flight and the arbitration pointers equal
// those w started from on every port the span observed. Packets of the
// span are neither sent nor delivered: the caller applies their payloads.
//
//hotnoc:noalloc
func (n *Network) Replay(w *Window) bool {
	if !w.ok || n.inflight != 0 || !n.observedMatch(w) {
		return false
	}
	n.restoreGranted(w)
	for _, outer := range n.windows {
		for i, g := range outer.granted {
			outer.obs[i] |= w.obs[i] &^ g
			outer.granted[i] = g | w.granted[i]
		}
	}
	d, s := &w.stats, &n.Stats
	n.Cycle += d.Cycles
	s.PacketsSent += d.PacketsSent
	s.PacketsDelivered += d.PacketsDelivered
	s.FlitsInjected += d.FlitsInjected
	s.FlitsDelivered += d.FlitsDelivered
	s.LatencySum += d.LatencySum
	s.LatencyMax = max(s.LatencyMax, d.LatencyMax)
	s.Cycles += d.Cycles
	s.ReplayedCycles += d.Cycles
	for k, a := range nocActivity(n.Act) {
		for i, v := range w.act[k] {
			a[i] += v
		}
	}
	return true
}

// markGrant records a grant of the unowned output o of router r in every
// window being recorded. Every such grant writes the port's pointer; a
// contested one, with two or more inputs requesting, also reads it, and
// a window observes that read unless it granted the port earlier.
//
//hotnoc:noalloc
func (n *Network) markGrant(r int, o Dir, contested bool) {
	bit := uint8(1) << o
	for _, w := range n.windows {
		if contested && w.granted[r]&bit == 0 {
			w.obs[r] |= bit
		}
		w.granted[r] |= bit
	}
}

// ArbitrationLen is the length of the vector SaveArbitration writes.
func (n *Network) ArbitrationLen() int { return len(n.routers) * int(numDirs) }

// SaveArbitration writes every output port's round-robin pointer, one
// byte each in router and port order, into dst[:ArbitrationLen()]. On a
// drained network these pointers are all the state later cycles can
// observe (see Window), so callers key recorded spans on them.
//
//hotnoc:noalloc
func (n *Network) SaveArbitration(dst []byte) {
	for i := range n.routers {
		for o := range n.routers[i].out {
			dst[i*int(numDirs)+o] = byte(n.routers[i].out[o].rr)
		}
	}
}

// observedMatch reports whether the round-robin pointers equal w's start
// pointers on every port w's span observed.
//
//hotnoc:noalloc
func (n *Network) observedMatch(w *Window) bool {
	if len(w.obs) != len(n.routers) {
		return false
	}
	for i, m := range w.obs {
		for ; m != 0; m &= m - 1 {
			o := bits.TrailingZeros8(m)
			if byte(n.routers[i].out[o].rr) != w.rr0[i*int(numDirs)+o] {
				return false
			}
		}
	}
	return true
}

// restoreGranted sets the round-robin pointers of the ports w's span
// granted to where the span left them.
//
//hotnoc:noalloc
func (n *Network) restoreGranted(w *Window) {
	for i, m := range w.granted {
		for ; m != 0; m &= m - 1 {
			o := bits.TrailingZeros8(m)
			n.routers[i].out[o].rr = Dir(w.rr1[i*int(numDirs)+o])
		}
	}
}
