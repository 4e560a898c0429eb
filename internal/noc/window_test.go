package noc

import (
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
func rrOf(n *Network) []Dir {
	rr := make([]Dir, len(n.routers)*int(numDirs))
	n.saveRR(rr)
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
		cycle, stats, act, rr := n.Cycle, n.Stats, n.Act.Clone(), rrOf(n)
		if n.Replay(w) {
			t.Fatal("Replay applied")
		}
		if n.Cycle != cycle || n.Stats != stats || !reflect.DeepEqual(n.Act, act) || !reflect.DeepEqual(rrOf(n), rr) {
			t.Fatal("a refused Replay changed the network")
		}
	}

	t.Run("busy", func(t *testing.T) {
		n := newNet(t, 4, 4)
		burst(t, n, 0.3, 4, 200, 1)
		if !n.rrEqual(w.rr0) {
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
		if n.rrEqual(w.rr0) {
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
