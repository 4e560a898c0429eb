package core_test

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"testing"

	"hotnoc/internal/chipcfg"
	"hotnoc/internal/core"
	"hotnoc/internal/noc"
)

// steppingMigrator returns a migrator with m's network and parameters that
// steps every migration: one made neither by NewMigrator nor by Fork has
// no migration memo.
func steppingMigrator(m *core.Migrator) *core.Migrator {
	return &core.Migrator{Net: m.Net, StateFlits: m.StateFlits,
		PhaseSyncCycles: m.PhaseSyncCycles, DrainTimeout: m.DrainTimeout}
}

// charBits lists every float64 of a characterization in a fixed order, as
// bit patterns: reflect.DeepEqual compares floats with ==, which cannot
// tell -0 from +0.
func charBits(ch *core.Characterization) []uint64 {
	var bits []uint64
	add := func(v ...float64) {
		for _, x := range v {
			bits = append(bits, math.Float64bits(x))
		}
	}
	add(ch.BaselineBlockJ...)
	for _, la := range ch.Legs {
		add(la.DecodeBlockJ...)
		add(la.DecodeJ)
		add(la.MigBlockJ...)
		add(la.MigJ)
	}
	return bits
}

// assertSameChar fails unless two characterizations are identical,
// floats bit for bit.
func assertSameChar(t *testing.T, what string, got, want *core.Characterization) {
	t.Helper()
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(charBits(got), charBits(want)) {
		t.Fatalf("%s: characterization differs from the reference", what)
	}
}

// assertSameNetwork fails unless two idle networks agree on the clock,
// every simulated statistic, all seven activity counters, the next packet
// ID and every arbitration pointer.
func assertSameNetwork(t *testing.T, what string, got, want *noc.Network) {
	t.Helper()
	if got.Busy() || want.Busy() {
		t.Fatalf("%s: network busy after a characterization", what)
	}
	gs, ws := got.Stats, want.Stats
	gs.SkippedCycles, gs.ReplayedCycles = 0, 0
	ws.SkippedCycles, ws.ReplayedCycles = 0, 0
	if got.Cycle != want.Cycle || gs != ws {
		t.Fatalf("%s: cycle %d stats %+v, reference cycle %d stats %+v", what, got.Cycle, gs, want.Cycle, ws)
	}
	if !reflect.DeepEqual(got.Act, want.Act) {
		t.Fatalf("%s: activity counters differ from the reference", what)
	}
	if got.IDs() != want.IDs() {
		t.Fatalf("%s: %d packet IDs taken, reference %d", what, got.IDs(), want.IDs())
	}
	ga, wa := make([]byte, got.ArbitrationLen()), make([]byte, want.ArbitrationLen())
	got.SaveArbitration(ga)
	want.SaveArbitration(wa)
	if !bytes.Equal(ga, wa) {
		t.Fatalf("%s: arbitration pointers differ from the reference", what)
	}
}

// TestMigrationMemoMatchesSimulation is the differential oracle for the
// migration memo: characterizing every scheme on clones of one build,
// whose migrators share the build's memo, must equal characterizing it on
// a clone that steps every migration, for all 25 (configuration, scheme)
// pairs at scales 8 and 1: characterizations bit for bit, and the network
// each leaves behind. The memo must also actually serve repeats.
func TestMigrationMemoMatchesSimulation(t *testing.T) {
	scales := []int{8, 1}
	if testing.Short() {
		scales = scales[:1]
	}
	for _, scale := range scales {
		for _, spec := range chipcfg.Specs() {
			spec := spec.Scaled(scale)
			built, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			var migrations, simulated uint64
			for _, scheme := range core.AllSchemes() {
				what := spec.Name + " " + scheme.Name
				memo, err := built.System.Clone()
				if err != nil {
					t.Fatal(err)
				}
				step, err := built.System.Clone()
				if err != nil {
					t.Fatal(err)
				}
				step.Migrator = steppingMigrator(step.Migrator)
				got, err := memo.Characterize(scheme)
				if err != nil {
					t.Fatal(err)
				}
				want, err := step.Characterize(scheme)
				if err != nil {
					t.Fatal(err)
				}
				assertSameChar(t, what, got, want)
				assertSameNetwork(t, what, memo.Engine.Net, step.Engine.Net)
				if m, s := memo.Migrator, step.Migrator; m.Migrations != s.Migrations || s.SimulatedMigrations != s.Migrations {
					t.Fatalf("%s: %d migrations with the memo, %d (%d simulated) without; want equal and all simulated",
						what, m.Migrations, s.Migrations, s.SimulatedMigrations)
				}
				migrations += memo.Migrator.Migrations
				simulated += memo.Migrator.SimulatedMigrations
			}
			if simulated >= migrations {
				t.Errorf("%s: %d of %d migrations simulated, want the memo to serve repeats",
					spec.Name, simulated, migrations)
			}
		}
	}
}

// TestMigrationMemoConcurrent: the five schemes characterized concurrently
// on clones of one build equal sequential characterizations on another
// build, and step as many migrations: each key is resolved once however
// the clones interleave. Run it under -race.
func TestMigrationMemoConcurrent(t *testing.T) {
	for _, spec := range chipcfg.Specs() {
		spec := spec.Scaled(8)
		schemes := core.AllSchemes()
		characterize := func(built *chipcfg.Built, s core.Scheme) (*core.Characterization, uint64) {
			sys, err := built.System.Clone()
			if err != nil {
				t.Error(err)
				return nil, 0
			}
			ch, err := sys.Characterize(s)
			if err != nil {
				t.Error(err)
			}
			return ch, sys.Migrator.SimulatedMigrations
		}

		seqBuilt, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		want := make([]*core.Characterization, len(schemes))
		var wantSim uint64
		for i, s := range schemes {
			ch, n := characterize(seqBuilt, s)
			want[i], wantSim = ch, wantSim+n
		}

		built, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		got := make([]*core.Characterization, len(schemes))
		sims := make([]uint64, len(schemes))
		var wg sync.WaitGroup
		for i, s := range schemes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], sims[i] = characterize(built, s)
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		var gotSim uint64
		for i, s := range schemes {
			assertSameChar(t, spec.Name+" "+s.Name, got[i], want[i])
			gotSim += sims[i]
		}
		if gotSim != wantSim {
			t.Errorf("%s: %d migrations simulated concurrently, %d sequentially", spec.Name, gotSim, wantSim)
		}
	}
}
