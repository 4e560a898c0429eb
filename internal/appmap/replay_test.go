package appmap_test

import (
	"reflect"
	"testing"

	"hotnoc/internal/appmap"
	"hotnoc/internal/chipcfg"
	"hotnoc/internal/core"
	"hotnoc/internal/geom"
	"hotnoc/internal/ldpc"
	"hotnoc/internal/noc"
)

// sameArbitration reports whether two idle networks hold the same
// round-robin pointers: an empty window recorded on one replays on the
// other only if they do.
func sameArbitration(t *testing.T, a, b *noc.Network) bool {
	t.Helper()
	var wa, wb noc.Window
	if !a.BeginWindow(&wa) || !a.EndWindow(&wa) || !b.BeginWindow(&wb) || !b.EndWindow(&wb) {
		t.Fatal("network busy after a decode")
	}
	return b.Replay(&wa) && a.Replay(&wb)
}

// assertSameNetwork fails unless the replaying network agrees with the
// simulating one on the clock, every simulated statistic, all seven
// activity counters and the arbitration pointers.
func assertSameNetwork(t *testing.T, what string, rep, sim *noc.Network) {
	t.Helper()
	if rep.Cycle != sim.Cycle {
		t.Fatalf("%s: cycle %d, simulated %d", what, rep.Cycle, sim.Cycle)
	}
	rs, ss := rep.Stats, sim.Stats
	rs.SkippedCycles, rs.ReplayedCycles = 0, 0
	ss.SkippedCycles, ss.ReplayedCycles = 0, 0
	if rs != ss {
		t.Fatalf("%s: stats %+v, simulated %+v", what, rs, ss)
	}
	if !reflect.DeepEqual(rep.Act, sim.Act) {
		t.Fatalf("%s: activity counters differ from simulation", what)
	}
	if !sameArbitration(t, rep, sim) {
		t.Fatalf("%s: arbitration pointers differ from simulation", what)
	}
}

// decodeBoth decodes one block on a replaying and a simulating engine and
// fails unless everything observable agrees.
func decodeBoth(t *testing.T, what string, rep, sim *appmap.Engine, llr []ldpc.LLR) {
	t.Helper()
	replayedBefore := rep.Net.Stats.ReplayedCycles
	got, err := rep.Decode(llr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Decode(llr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: block result %d cycles differs from simulated %d cycles (or its decisions do)",
			what, got.Cycles, want.Cycles)
	}
	assertSameNetwork(t, what, rep.Net, sim.Net)
	if rep.Net.Stats.ReplayedCycles == replayedBefore || sim.Net.Stats.ReplayedCycles != 0 {
		t.Fatalf("%s: replayed %d cycles, simulation replayed %d; want some and none",
			what, rep.Net.Stats.ReplayedCycles-replayedBefore, sim.Net.Stats.ReplayedCycles)
	}
}

// TestPhaseReplayMatchesSimulation is the differential oracle for phase
// replay: decoding with repeated half-iterations replayed from recorded
// windows must equal simulating every half-iteration on the network —
// decisions, cycles, statistics, activity and the arbitration state left
// for later traffic — on the paper decode, on the five paper
// configurations, and across migrations that change the placement and
// leave the network in a new arbitration state between decodes.
func TestPhaseReplayMatchesSimulation(t *testing.T) {
	t.Run("paper decode", func(t *testing.T) {
		rep, llr := appmap.PaperDecode(t)
		sim, _ := appmap.PaperDecode(t)
		appmap.SimulateAll(sim)
		decodeBoth(t, "first block", rep, sim, llr)
		decodeBoth(t, "repeat block", rep, sim, llr)
	})

	for _, spec := range chipcfg.Specs() {
		spec := spec.Scaled(8)
		t.Run(spec.Name, func(t *testing.T) {
			b, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := b.System.Clone()
			if err != nil {
				t.Fatal(err)
			}
			sim, err := b.System.Clone()
			if err != nil {
				t.Fatal(err)
			}
			appmap.SimulateAll(sim.Engine)

			g := rep.Grid
			place := append([]int(nil), rep.InitialPlace...)
			for leg, tr := range []geom.Transform{
				geom.Rotation(g.W), geom.XYTranslate(g.W, g.H, 1, 2), geom.XMirror(g.W), geom.Identity(),
			} {
				what := spec.Name + " leg " + tr.Name
				for _, s := range []*core.System{rep, sim} {
					if err := s.Engine.SetPlacement(place); err != nil {
						t.Fatal(err)
					}
				}
				decodeBoth(t, what, rep.Engine, sim.Engine, rep.BlockSource(leg))

				perm := geom.FromTransform(g, tr)
				rm, err := rep.Migrator.Execute(perm)
				if err != nil {
					t.Fatal(err)
				}
				sm, err := sim.Migrator.Execute(perm)
				if err != nil {
					t.Fatal(err)
				}
				if rm != sm {
					t.Fatalf("%s: migration %+v, simulated %+v", what, rm, sm)
				}
				assertSameNetwork(t, what+" migration", rep.Engine.Net, sim.Engine.Net)
				next := make([]int, len(place))
				for l, blk := range place {
					next[l] = perm.Dst(blk)
				}
				place = next
			}
		})
	}
}

// TestDecodeSteadyAllocs pins a warm decode's allocations: the phase
// memo reuses its windows, leaving the decisions slice, and the send
// ordering of the simulated phases.
func TestDecodeSteadyAllocs(t *testing.T) {
	eng, llr := appmap.PaperDecode(t)
	if _, err := eng.Decode(llr); err != nil {
		t.Fatal(err)
	}
	const maxAllocs = 11
	got := testing.AllocsPerRun(3, func() {
		if _, err := eng.Decode(llr); err != nil {
			t.Fatal(err)
		}
	})
	if got > maxAllocs {
		t.Errorf("a warm decode allocates %.0f times, want at most %d", got, maxAllocs)
	}
}
