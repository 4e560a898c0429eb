package appmap_test

import (
	"bytes"
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
// round-robin pointers on every port.
func sameArbitration(t *testing.T, a, b *noc.Network) bool {
	t.Helper()
	if a.Busy() || b.Busy() {
		t.Fatal("network busy after a decode")
	}
	ra, rb := make([]byte, a.ArbitrationLen()), make([]byte, b.ArbitrationLen())
	a.SaveArbitration(ra)
	b.SaveArbitration(rb)
	return bytes.Equal(ra, rb)
}

// assertSameNetwork fails unless the network under test agrees with the
// reference one on the clock, every simulated statistic, all seven
// activity counters, the next packet ID and the arbitration pointers.
func assertSameNetwork(t *testing.T, what string, got, want *noc.Network) {
	t.Helper()
	if got.Cycle != want.Cycle {
		t.Fatalf("%s: cycle %d, reference %d", what, got.Cycle, want.Cycle)
	}
	gs, ws := got.Stats, want.Stats
	gs.SkippedCycles, gs.ReplayedCycles = 0, 0
	ws.SkippedCycles, ws.ReplayedCycles = 0, 0
	if gs != ws {
		t.Fatalf("%s: stats %+v, reference %+v", what, gs, ws)
	}
	if !reflect.DeepEqual(got.Act, want.Act) {
		t.Fatalf("%s: activity counters differ from the reference", what)
	}
	// Taking an ID advances both counters alike.
	if g, w := got.NextID(), want.NextID(); g != w {
		t.Fatalf("%s: next packet ID %d, reference %d", what, g, w)
	}
	if !sameArbitration(t, got, want) {
		t.Fatalf("%s: arbitration pointers differ from the reference", what)
	}
}

// side is one half of a differential decode: a decoder on its own
// network, with the migrator that moves it when the harness migrates.
type side struct {
	net          *noc.Network
	mig          *core.Migrator
	setPlacement func([]int) error
	decode       func([]ldpc.LLR) (int64, error)
}

func engineSide(e *appmap.Engine, mig *core.Migrator) side {
	return side{net: e.Net, mig: mig, setPlacement: e.SetPlacement, decode: e.Decode}
}

func refSide(r *appmap.RefEngine, mig *core.Migrator) side {
	return side{net: r.Net, mig: mig, setPlacement: r.SetPlacement,
		decode: func(llr []ldpc.LLR) (int64, error) {
			_, cycles, err := r.Decode(llr)
			return cycles, err
		}}
}

// decodeBoth decodes one block on both sides and fails unless everything
// observable agrees. The replaying side (got) must replay some cycles of
// the block and the reference side none.
func decodeBoth(t *testing.T, what string, got, want side, llr []ldpc.LLR) {
	t.Helper()
	replayedBefore := got.net.Stats.ReplayedCycles
	gc, err := got.decode(llr)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := want.decode(llr)
	if err != nil {
		t.Fatal(err)
	}
	if gc != wc {
		t.Fatalf("%s: block took %d cycles, reference %d", what, gc, wc)
	}
	assertSameNetwork(t, what, got.net, want.net)
	if got.net.Stats.ReplayedCycles == replayedBefore || want.net.Stats.ReplayedCycles != 0 {
		t.Fatalf("%s: replayed %d cycles, reference replayed %d; want some and none",
			what, got.net.Stats.ReplayedCycles-replayedBefore, want.net.Stats.ReplayedCycles)
	}
}

// orbitBoth decodes one block per leg on both sides of a paper
// configuration, migrating both between decodes so each leg starts from
// a new placement and the arbitration state the migration left.
func orbitBoth(t *testing.T, name string, g geom.Grid, place []int, got, want side, llr []ldpc.LLR) {
	t.Helper()
	place = append([]int(nil), place...)
	for _, tr := range []geom.Transform{
		geom.Rotation(g.W), geom.XYTranslate(g.W, g.H, 1, 2), geom.XMirror(g.W), geom.Identity(),
	} {
		what := name + " leg " + tr.Name
		for _, s := range []side{got, want} {
			if err := s.setPlacement(place); err != nil {
				t.Fatal(err)
			}
		}
		decodeBoth(t, what, got, want, llr)

		perm := geom.FromTransform(g, tr)
		gm, err := got.mig.Execute(perm)
		if err != nil {
			t.Fatal(err)
		}
		wm, err := want.mig.Execute(perm)
		if err != nil {
			t.Fatal(err)
		}
		if gm != wm {
			t.Fatalf("%s: migration %+v, reference %+v", what, gm, wm)
		}
		assertSameNetwork(t, what+" migration", got.net, want.net)
		next := make([]int, len(place))
		for l, blk := range place {
			next[l] = perm.Dst(blk)
		}
		place = next
	}
}

// steppingMigrator returns a migrator with m's network and parameters that
// steps every migration: one made neither by core.NewMigrator nor by Fork
// has no migration memo. It is the migration counterpart of
// appmap.SimulateAll for the reference side of a differential test.
func steppingMigrator(m *core.Migrator) *core.Migrator {
	return &core.Migrator{Net: m.Net, StateFlits: m.StateFlits,
		PhaseSyncCycles: m.PhaseSyncCycles, DrainTimeout: m.DrainTimeout}
}

// buildScaled builds a paper configuration at scale 8 and returns two
// independent clones of it.
func buildScaled(t *testing.T, spec chipcfg.Spec) (a, b *core.System) {
	t.Helper()
	built, err := spec.Scaled(8).Build()
	if err != nil {
		t.Fatal(err)
	}
	if a, err = built.System.Clone(); err != nil {
		t.Fatal(err)
	}
	if b, err = built.System.Clone(); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestPhaseReplayMatchesSimulation is the differential oracle for phase
// replay: decoding with repeated half-iterations replayed from recorded
// windows must equal simulating every half-iteration on the network —
// cycles, statistics, activity and the arbitration state left for later
// traffic — on the paper decode, on the five paper configurations, and
// across migrations that change the placement and leave the network in a
// new arbitration state between decodes.
func TestPhaseReplayMatchesSimulation(t *testing.T) {
	t.Run("paper decode", func(t *testing.T) {
		rep, llr := appmap.PaperDecode(t)
		sim, _ := appmap.PaperDecode(t)
		appmap.SimulateAll(sim)
		decodeBoth(t, "first block", engineSide(rep, nil), engineSide(sim, nil), llr)
		decodeBoth(t, "repeat block", engineSide(rep, nil), engineSide(sim, nil), llr)
	})

	for _, spec := range chipcfg.Specs() {
		t.Run(spec.Name, func(t *testing.T) {
			rep, sim := buildScaled(t, spec)
			appmap.SimulateAll(sim.Engine)
			orbitBoth(t, spec.Name, rep.Grid, rep.InitialPlace,
				engineSide(rep.Engine, rep.Migrator), engineSide(sim.Engine, steppingMigrator(sim.Migrator)), rep.BlockSource(0))
		})
	}
}

// noisyBlock transmits the all-zero codeword of code over a 2 dB channel.
func noisyBlock(t *testing.T, code *ldpc.Code, seed int64) []ldpc.LLR {
	t.Helper()
	ch, err := ldpc.NewChannel(2.0, code.Rate(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return ch.Transmit(make([]uint8, code.N))
}

// TestTrafficMatchesValueOracle is the differential oracle for the
// traffic-only Engine: on the same blocks, placements and migrations it
// must leave the network exactly as the frozen value-carrying RefEngine
// does — cycles, every simulated statistic, all seven activity counters,
// the next packet ID and the arbitration pointers after each decode. It
// covers the paper decode, the five paper configurations with migrations
// between decodes, and small contiguous, interleaved and skewed
// partitions.
func TestTrafficMatchesValueOracle(t *testing.T) {
	newRef := func(t *testing.T, e *appmap.Engine) *appmap.RefEngine {
		t.Helper()
		net, err := noc.New(e.Net.Grid, e.Net.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := appmap.NewRefEngine(e.Code, e.Part, net)
		if err != nil {
			t.Fatal(err)
		}
		ref.MaxIter = e.MaxIter
		return ref
	}

	t.Run("paper decode", func(t *testing.T) {
		eng, llr := appmap.PaperDecode(t)
		ref := newRef(t, eng)
		decodeBoth(t, "first block", engineSide(eng, nil), refSide(ref, nil), llr)
		decodeBoth(t, "second block", engineSide(eng, nil), refSide(ref, nil), llr)
	})

	for _, spec := range chipcfg.Specs() {
		t.Run(spec.Name, func(t *testing.T) {
			sys, other := buildScaled(t, spec)
			ref, err := appmap.NewRefEngine(other.Engine.Code, other.Engine.Part, other.Engine.Net)
			if err != nil {
				t.Fatal(err)
			}
			ref.MaxIter = other.Engine.MaxIter
			llr := noisyBlock(t, sys.Engine.Code, 4001)
			orbitBoth(t, spec.Name, sys.Grid, sys.InitialPlace,
				engineSide(sys.Engine, sys.Migrator), refSide(ref, steppingMigrator(other.Migrator)), llr)
		})
	}

	code, err := ldpc.NewRegular(160, 80, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := appmap.Skewed(code, 16, 3, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	for name, part := range map[string]*appmap.Partition{
		"contiguous":  appmap.Contiguous(code, 16),
		"interleaved": appmap.Interleaved(code, 16),
		"skewed":      skewed,
	} {
		t.Run(name, func(t *testing.T) {
			net, err := noc.New(geom.NewGrid(4, 4), noc.Config{})
			if err != nil {
				t.Fatal(err)
			}
			eng, err := appmap.NewEngine(code, part, net)
			if err != nil {
				t.Fatal(err)
			}
			eng.MaxIter = 8
			ref := newRef(t, eng)
			for blk := int64(0); blk < 3; blk++ {
				decodeBoth(t, name, engineSide(eng, nil), refSide(ref, nil), noisyBlock(t, code, 100+blk))
			}
		})
	}
}

// TestDecodeSteadyAllocs pins a warm simulated decode's allocations (the
// decode memo is bypassed): the phase memo reuses its windows and the
// send plans are sorted once per engine, leaving the delivery hook.
func TestDecodeSteadyAllocs(t *testing.T) {
	eng, llr := appmap.PaperDecode(t)
	appmap.BypassMemo(eng)
	if _, err := eng.Decode(llr); err != nil {
		t.Fatal(err)
	}
	const maxAllocs = 1
	got := testing.AllocsPerRun(3, func() {
		if _, err := eng.Decode(llr); err != nil {
			t.Fatal(err)
		}
	})
	if got > maxAllocs {
		t.Errorf("a warm decode allocates %.0f times, want at most %d", got, maxAllocs)
	}
	if eng.SimulatedDecodes != eng.Decodes {
		t.Errorf("%d of %d decodes simulated, want all", eng.SimulatedDecodes, eng.Decodes)
	}
}
