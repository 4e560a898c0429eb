package noc

import (
	"bytes"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"hotnoc/internal/geom"
)

// burst injects seeded uniform-random traffic for the given number of
// cycles and then drains, leaving the network idle with arbitration
// pointers that depend on the traffic.
func burst(t *testing.T, n *Network, rate float64, nflits, cycles int, seed int64) {
	t.Helper()
	gen, err := NewGenerator(n, UniformRandom, rate, nflits, seed)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cycles; c++ {
		gen.Tick()
		n.Step()
	}
	if _, err := n.Drain(1_000_000); err != nil {
		t.Fatal(err)
	}
}

// rrOf returns a network's arbitration pointers.
func rrOf(n *Network) []byte {
	rr := make([]byte, n.ArbitrationLen())
	n.SaveArbitration(rr)
	return rr
}

// simulated returns the statistics with the host-side bookkeeping cleared.
func simulated(s Stats) Stats {
	s.SkippedCycles, s.ReplayedCycles = 0, 0
	return s
}

// assertSameState fails unless two idle networks agree on everything a
// later cycle can observe or a caller can read: clock, simulated
// statistics, activity counters and arbitration pointers.
func assertSameState(t *testing.T, got, want *Network) {
	t.Helper()
	if got.Cycle != want.Cycle {
		t.Errorf("cycle %d, want %d", got.Cycle, want.Cycle)
	}
	if g, w := simulated(got.Stats), simulated(want.Stats); g != w {
		t.Errorf("stats %+v, want %+v", g, w)
	}
	if !reflect.DeepEqual(got.Act, want.Act) {
		t.Error("activity counters differ")
	}
	if !reflect.DeepEqual(rrOf(got), rrOf(want)) {
		t.Error("arbitration pointers differ")
	}
}

// TestReplayMatchesStepping: replaying a recorded window on a network in
// the window's starting state equals stepping the same traffic there,
// later in time, including the maximum latency whichever side of the
// window start it falls on, and the arbitration state later traffic
// sees.
func TestReplayMatchesStepping(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		warmRate, windowRate float64
		warmFlits, winFlits  int
	}{
		{"max before window", 0.6, 0.05, 8, 1},
		{"max inside window", 0.05, 0.6, 1, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec, ref, rep := newNet(t, 5, 5), newNet(t, 5, 5), newNet(t, 5, 5)
			for _, n := range []*Network{rec, ref, rep} {
				burst(t, n, tc.warmRate, tc.warmFlits, 300, 1)
			}
			warmMax := rec.Stats.LatencyMax

			var w Window
			if !rec.BeginWindow(&w) {
				t.Fatal("BeginWindow refused an idle network")
			}
			burst(t, rec, tc.windowRate, tc.winFlits, 300, 2)
			if !rec.EndWindow(&w) {
				t.Fatal("EndWindow refused an idle network")
			}
			if own := w.stats.LatencyMax; own == warmMax || (own > warmMax) != (tc.warmRate < tc.windowRate) {
				t.Fatalf("window max latency %d vs warm-up %d: the case does not test what it says", own, warmMax)
			}
			if rec.Stats.LatencyMax != max(warmMax, w.stats.LatencyMax) {
				t.Errorf("EndWindow left LatencyMax %d, want max(%d, %d)",
					rec.Stats.LatencyMax, warmMax, w.stats.LatencyMax)
			}

			// The same traffic from the same state, 37 idle cycles later.
			ref.Run(37)
			rep.Run(37)
			burst(t, ref, tc.windowRate, tc.winFlits, 300, 2)
			if !rep.Replay(&w) {
				t.Fatal("Replay refused a network in the window's starting state")
			}
			assertSameState(t, rep, ref)
			if rep.Stats.ReplayedCycles != w.stats.Cycles || rep.Stats.SkippedCycles != 37 {
				t.Errorf("replayed %d, skipped %d cycles; want %d and 37",
					rep.Stats.ReplayedCycles, rep.Stats.SkippedCycles, w.stats.Cycles)
			}

			// Later traffic sees the same arbitration state.
			burst(t, ref, 0.4, 4, 200, 3)
			burst(t, rep, 0.4, 4, 200, 3)
			assertSameState(t, rep, ref)
		})
	}
}

// setRR sets the round-robin pointers from a SaveArbitration vector.
func setRR(n *Network, v []byte) {
	for i := range n.routers {
		for o := range n.routers[i].out {
			n.routers[i].out[o].rr = Dir(v[i*int(numDirs)+o])
		}
	}
}

// observed reports whether w's span observed port i of a
// SaveArbitration vector.
func observed(w *Window, i int) bool {
	return w.obs[i/int(numDirs)]&(1<<(i%int(numDirs))) != 0
}

// agreeing returns a random arbitration vector that equals w's start
// pointers on every port w observed.
func agreeing(w *Window, rng *rand.Rand) []byte {
	v := make([]byte, len(w.rr0))
	for i := range v {
		if observed(w, i) {
			v[i] = w.rr0[i]
		} else {
			v[i] = byte(rng.Intn(int(numDirs)))
		}
	}
	return v
}

// differsObserved reports whether n's pointers differ from w's start
// pointers on some port w observed.
func differsObserved(n *Network, w *Window) bool {
	rr := rrOf(n)
	for i := range rr {
		if observed(w, i) && rr[i] != w.rr0[i] {
			return true
		}
	}
	return false
}

// portCount counts the ports set in a per-router mask.
func portCount(m []uint8) int {
	c := 0
	for _, b := range m {
		c += bits.OnesCount8(b)
	}
	return c
}

// contended is one recorded span of the observed-pointer tests: seeded
// uniform-random traffic, heavy enough that many arbitrations are
// contested and light enough that some grants are not.
type contended struct {
	w, h  int
	rate  float64
	flits int
	burst int
}

var contendedSpans = []contended{
	{4, 4, 0.08, 4, 60},
	{4, 4, 0.3, 4, 120},
	{5, 5, 0.1, 6, 80},
	{5, 5, 0.4, 2, 150},
}

// TestObservedReplayMatchesStepping is the differential oracle for
// observed-pointer replay. A span of contended random traffic is recorded
// on 4x4 and 5x5 meshes; from random arbitration vectors that agree with
// its start on the ports it observed, replaying it must equal stepping the
// same traffic: clock, statistics, activity and every pointer, including
// those of later traffic. A vector that differs on one observed port is
// refused.
func TestObservedReplayMatchesStepping(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for ci, c := range contendedSpans {
		rec := newNet(t, c.w, c.h)
		burst(t, rec, 0.3, 4, 100, int64(10+ci))
		var w Window
		if !rec.BeginWindow(&w) {
			t.Fatal("BeginWindow refused an idle network")
		}
		burst(t, rec, c.rate, c.flits, c.burst, int64(20+ci))
		if !rec.EndWindow(&w) {
			t.Fatal("EndWindow refused an idle network")
		}
		nobs, ngr := portCount(w.obs), portCount(w.granted)
		if nobs == 0 || nobs == ngr || ngr == len(w.rr0) {
			t.Fatalf("case %d: %d observed of %d granted of %d ports: the span does not test observed-only matching",
				ci, nobs, ngr, len(w.rr0))
		}
		for k := range 8 {
			start := agreeing(&w, rng)
			if bytes.Equal(start, w.rr0) {
				t.Fatalf("case %d: random start equals the recorded one", ci)
			}
			ref, rep := newNet(t, c.w, c.h), newNet(t, c.w, c.h)
			setRR(ref, start)
			setRR(rep, start)
			burst(t, ref, c.rate, c.flits, c.burst, int64(20+ci))
			if !rep.Replay(&w) {
				t.Fatalf("case %d start %d: Replay refused pointers that agree on every observed port", ci, k)
			}
			assertSameState(t, rep, ref)
			burst(t, ref, 0.4, 4, 100, int64(30+k))
			burst(t, rep, 0.4, 4, 100, int64(30+k))
			assertSameState(t, rep, ref)
			if t.Failed() {
				t.Fatalf("case %d start %d: replay differs from stepping", ci, k)
			}
		}

		// One observed port off is refused, whichever it is.
		for i := range w.rr0 {
			if !observed(&w, i) {
				continue
			}
			start := agreeing(&w, rng)
			start[i] = (start[i] + 1 + byte(rng.Intn(int(numDirs)-1))) % byte(numDirs)
			n := newNet(t, c.w, c.h)
			setRR(n, start)
			if n.Replay(&w) {
				t.Fatalf("case %d: Replay accepted pointers that differ on observed port %d", ci, i)
			}
			if !bytes.Equal(rrOf(n), start) || n.Cycle != 0 || n.Stats != (Stats{}) {
				t.Fatalf("case %d: a refused Replay changed the network", ci)
			}
		}
	}
}

// TestNestedReplayMatchesStepping: an outer recording that steps some
// traffic, replays an inner window and steps more equals the outer window
// recorded by stepping all of it: the same observed and granted ports,
// deltas and pointers. The inner span follows stepped traffic, so the
// outer window observes only the inner span's reads of ports it had not
// granted yet.
func TestNestedReplayMatchesStepping(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for ci, c := range contendedSpans {
		pre := func(n *Network) { burst(t, n, c.rate, c.flits, c.burst/2, int64(40+ci)) }
		mid := func(n *Network) { burst(t, n, c.rate, c.flits, c.burst, int64(50+ci)) }
		post := func(n *Network) { burst(t, n, c.rate, c.flits, c.burst/2, int64(60+ci)) }

		// Record the outer span by stepping, with the inner span nested.
		rec := newNet(t, c.w, c.h)
		burst(t, rec, 0.3, 4, 100, int64(10+ci))
		var outer, inner Window
		rec.BeginWindow(&outer)
		pre(rec)
		rec.BeginWindow(&inner)
		mid(rec)
		if !rec.EndWindow(&inner) {
			t.Fatal("inner EndWindow refused an idle network")
		}
		post(rec)
		if !rec.EndWindow(&outer) {
			t.Fatal("outer EndWindow refused an idle network")
		}
		if portCount(outer.obs) == portCount(outer.granted) {
			t.Fatalf("case %d: every granted port observed: the span does not test observed-only matching", ci)
		}

		for k := range 4 {
			start := agreeing(&outer, rng)
			rep, ref := newNet(t, c.w, c.h), newNet(t, c.w, c.h)
			setRR(rep, start)
			setRR(ref, start)
			var got, want Window
			rep.BeginWindow(&got)
			pre(rep)
			if !rep.Replay(&inner) {
				t.Fatalf("case %d start %d: inner Replay refused inside the outer span", ci, k)
			}
			post(rep)
			ref.BeginWindow(&want)
			pre(ref)
			mid(ref)
			post(ref)
			if !rep.EndWindow(&got) || !ref.EndWindow(&want) {
				t.Fatal("EndWindow refused an idle network")
			}
			assertSameState(t, rep, ref)
			got.stats.ReplayedCycles, want.stats.ReplayedCycles = 0, 0
			got.stats.SkippedCycles, want.stats.SkippedCycles = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d start %d: outer window with a nested replay differs from stepping", ci, k)
			}
			if !bytes.Equal(got.obs, outer.obs) || !bytes.Equal(got.granted, outer.granted) {
				t.Fatalf("case %d start %d: observed or granted ports depend on unobserved start pointers", ci, k)
			}
		}
	}
}

// TestReplayRefusals: Replay changes nothing on a busy network, under
// different arbitration pointers, or for a window that was never
// completed; BeginWindow refuses a busy network and EndWindow a
// recording that ends busy, restoring the maximum latency either way.
func TestReplayRefusals(t *testing.T) {
	rec := newNet(t, 4, 4)
	burst(t, rec, 0.3, 4, 200, 1)
	var w Window
	if !rec.BeginWindow(&w) {
		t.Fatal("BeginWindow refused an idle network")
	}
	burst(t, rec, 0.3, 4, 200, 2)
	if !rec.EndWindow(&w) {
		t.Fatal("EndWindow refused an idle network")
	}

	refuse := func(t *testing.T, n *Network, w *Window) {
		t.Helper()
		cycle, stats, act, rr := n.Cycle, n.Stats, copyActivity(n.Act), rrOf(n)
		if n.Replay(w) {
			t.Fatal("Replay applied")
		}
		if n.Cycle != cycle || n.Stats != stats || !reflect.DeepEqual(*n.Act, act) || !reflect.DeepEqual(rrOf(n), rr) {
			t.Fatal("a refused Replay changed the network")
		}
	}

	t.Run("busy", func(t *testing.T) {
		n := newNet(t, 4, 4)
		burst(t, n, 0.3, 4, 200, 1)
		if !bytes.Equal(rrOf(n), w.rr0) {
			t.Fatal("same warm-up, different arbitration state")
		}
		if err := n.Send(&Packet{Src: geom.Coord{X: 0, Y: 0}, Dst: geom.Coord{X: 3, Y: 3}, NFlits: 2}); err != nil {
			t.Fatal(err)
		}
		refuse(t, n, &w)
	})
	t.Run("arbitration state", func(t *testing.T) {
		n := newNet(t, 4, 4)
		burst(t, n, 0.3, 4, 200, 7)
		if !differsObserved(n, &w) {
			t.Fatal("different warm-up, same arbitration state: pick another seed")
		}
		refuse(t, n, &w)
	})
	t.Run("unrecorded", func(t *testing.T) {
		n := newNet(t, 4, 4)
		refuse(t, n, &Window{})
	})
	t.Run("ends busy", func(t *testing.T) {
		n := newNet(t, 4, 4)
		burst(t, n, 0.3, 4, 200, 1)
		before := n.Stats.LatencyMax
		var bw Window
		if !n.BeginWindow(&bw) {
			t.Fatal("BeginWindow refused an idle network")
		}
		near := &Packet{Src: geom.Coord{X: 0, Y: 0}, Dst: geom.Coord{X: 1, Y: 0}, NFlits: 1}
		far := &Packet{Src: geom.Coord{X: 3, Y: 3}, Dst: geom.Coord{X: 0, Y: 0}, NFlits: 40}
		for _, p := range []*Packet{near, far} {
			if err := n.Send(p); err != nil {
				t.Fatal(err)
			}
		}
		n.Run(10)
		if near.EjectCycle == 0 || !n.Busy() {
			t.Fatal("want the near packet delivered and the far one in flight")
		}
		if n.EndWindow(&bw) {
			t.Fatal("EndWindow accepted a recording that ends busy")
		}
		if want := max(before, near.Latency()); n.Stats.LatencyMax != want {
			t.Errorf("LatencyMax %d after a refused EndWindow, want %d", n.Stats.LatencyMax, want)
		}
		if n.BeginWindow(&bw) {
			t.Fatal("BeginWindow accepted a busy network")
		}
		if n.EndWindow(&bw) {
			t.Fatal("EndWindow accepted a window BeginWindow refused")
		}
		if _, err := n.Drain(10_000); err != nil {
			t.Fatal(err)
		}
		refuse(t, n, &bw)
	})
}

// TestWindowAllocationFree: recording into a reused window and replaying
// it allocate nothing.
func TestWindowAllocationFree(t *testing.T) {
	n := newNet(t, 5, 5)
	burst(t, n, 0.3, 4, 100, 1)
	var w Window
	record := func() {
		if !n.BeginWindow(&w) || !n.EndWindow(&w) {
			t.Fatal("empty window refused")
		}
	}
	if got := testing.AllocsPerRun(20, record); got != 0 {
		t.Errorf("recording into a reused window allocates %.1f times, want 0", got)
	}
	replay := func() {
		if !n.Replay(&w) {
			t.Fatal("Replay refused")
		}
	}
	if got := testing.AllocsPerRun(20, replay); got != 0 {
		t.Errorf("Replay allocates %.1f times, want 0", got)
	}
}

// TestResetMatchesNew: a network reset mid-traffic, with a window still
// recording, is in every observable respect the network New returns,
// and the same traffic then runs on it cycle for cycle as on a new one.
// Only SteppedCycles keeps counting.
func TestResetMatchesNew(t *testing.T) {
	reused, fresh := newNet(t, 9, 9), newNet(t, 9, 9)
	reused.Deliver = func(*Packet) {}
	burst(t, reused, 0.3, 5, 400, 7)
	var w Window
	if !reused.BeginWindow(&w) {
		t.Fatal("BeginWindow failed on a drained network")
	}
	gen, err := NewGenerator(reused, UniformRandom, 0.5, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	for range 70 {
		gen.Tick()
		reused.Step()
	}
	if !reused.Busy() {
		t.Fatal("no traffic in flight at the reset")
	}
	stepped := reused.SteppedCycles()
	reused.Reset()
	if reused.SteppedCycles() != stepped {
		t.Fatalf("Reset moved SteppedCycles from %d to %d", stepped, reused.SteppedCycles())
	}
	if reused.Deliver != nil || len(reused.windows) != 0 || reused.IDs() != 0 {
		t.Fatalf("Reset left a sink (%v), %d windows or %d packet IDs", reused.Deliver != nil, len(reused.windows), reused.IDs())
	}
	for _, s := range [][]uint64{reused.bufSet, reused.latSet, reused.niSet} {
		for _, word := range s {
			if word != 0 {
				t.Fatal("Reset left an active set nonempty")
			}
		}
	}
	if !reflect.DeepEqual(reused.state(), fresh.state()) {
		t.Fatal("reset network differs from a new one")
	}
	var gens [2]*Generator
	for i, n := range []*Network{reused, fresh} {
		if gens[i], err = NewGenerator(n, UniformRandom, 0.4, 4, 9); err != nil {
			t.Fatal(err)
		}
	}
	for c := range 200 {
		for i, n := range []*Network{reused, fresh} {
			gens[i].Tick()
			n.Step()
		}
		if !reflect.DeepEqual(reused.state(), fresh.state()) || reused.IDs() != fresh.IDs() {
			t.Fatalf("cycle %d after the reset: state differs from a new network's", c)
		}
	}
}
