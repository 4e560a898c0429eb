package noc

import "hotnoc/internal/power"

// Window records the effect of a span of simulation that starts and ends
// with nothing in flight, so that a repeat of the span can be applied
// without stepping it.
//
// On a drained network the only state that can change future cycles is
// each output port's round-robin pointer: FIFOs, output latches, worm
// ownership, route-holding flags and NI queues are empty or cleared, an
// empty FIFO's ring offset and a released input's stale route cannot be
// observed, and the absolute cycle only shifts time stamps. Sending the
// same packets at the same cycles relative to the start, from the same
// arbitration pointers, therefore reproduces the recorded span cycle for
// cycle. Matching the traffic is the caller's job; Replay checks the rest.
//
// A Window's storage is reused by every recording into it.
type Window struct {
	// rr0 and rr1 are the arbitration pointers at the start and the end,
	// as SaveArbitration writes them.
	rr0, rr1 []byte
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
	if nrr := n.ArbitrationLen(); cap(w.rr0) < nrr {
		w.rr0 = make([]byte, nrr) //hotnoc:allow noalloc amortized growth on a Window's first recording; reuse records at 0 allocs
	} else {
		w.rr0 = w.rr0[:nrr]
	}
	n.SaveArbitration(w.rr0)
	for k, s := range nocActivity(n.Act) {
		if cap(w.act[k]) < len(s) {
			w.act[k] = make([]uint64, len(s)) //hotnoc:allow noalloc amortized growth on a Window's first recording; reuse records at 0 allocs
		}
		w.act[k] = w.act[k][:len(s)]
		copy(w.act[k], s)
	}
	w.stats = n.Stats
	n.Stats.LatencyMax = 0 // the span's own maximum, folded back at the end
	w.recording = true
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
// in the span's maximum latency and leaves the arbitration pointers where
// the span left them. The replayed cycles count in Stats.ReplayedCycles.
// Replay reports false and changes nothing unless w was recorded, nothing
// is in flight and the arbitration pointers equal those w started from.
// Packets of the span are neither sent nor delivered: the caller applies
// their payloads.
//
//hotnoc:noalloc
func (n *Network) Replay(w *Window) bool {
	if !w.ok || n.inflight != 0 || !n.rrEqual(w.rr0) {
		return false
	}
	n.restoreRR(w.rr1)
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

// restoreRR sets the round-robin pointers from a SaveArbitration vector.
//
//hotnoc:noalloc
func (n *Network) restoreRR(src []byte) {
	for i := range n.routers {
		for o := range n.routers[i].out {
			n.routers[i].out[o].rr = Dir(src[i*int(numDirs)+o])
		}
	}
}

// rrEqual reports whether the round-robin pointers equal a
// SaveArbitration vector.
//
//hotnoc:noalloc
func (n *Network) rrEqual(v []byte) bool {
	if len(v) != n.ArbitrationLen() {
		return false
	}
	for i := range n.routers {
		for o := range n.routers[i].out {
			if byte(n.routers[i].out[o].rr) != v[i*int(numDirs)+o] {
				return false
			}
		}
	}
	return true
}
