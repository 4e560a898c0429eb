package appmap_test

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"hotnoc/internal/appmap"
	"hotnoc/internal/chipcfg"
	"hotnoc/internal/core"
	"hotnoc/internal/noc"
)

// charFloats lists every float64 of a characterization in a fixed order,
// as bit patterns: reflect.DeepEqual compares floats with ==, which
// cannot tell -0 from +0.
func charFloats(ch *core.Characterization) []uint64 {
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
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(charFloats(got), charFloats(want)) {
		t.Fatalf("%s: characterization differs from the reference", what)
	}
}

// TestDecodeMemoMatchesSimulation is the differential oracle for the
// decode memo: characterizing every scheme on clones of one build, which
// share the build's memo, must equal characterizing it on a clone that
// simulates every decode, for all 25 (configuration, scheme) pairs at
// scales 1 and 8. The memo must also actually serve repeats.
func TestDecodeMemoMatchesSimulation(t *testing.T) {
	scales := []int{8, 1}
	if testing.Short() {
		scales = scales[:1]
	}
	for _, scale := range scales {
		for _, spec := range chipcfg.Specs() {
			built, err := spec.Scaled(scale).Build()
			if err != nil {
				t.Fatal(err)
			}
			var decodes, simulated uint64
			for _, scheme := range core.AllSchemes() {
				what := spec.Scaled(scale).Name + " " + scheme.Name
				memo, err := built.System.Clone()
				if err != nil {
					t.Fatal(err)
				}
				bypass, err := built.System.Clone()
				if err != nil {
					t.Fatal(err)
				}
				appmap.BypassMemo(bypass.Engine)
				got, err := memo.Characterize(scheme)
				if err != nil {
					t.Fatal(err)
				}
				want, err := bypass.Characterize(scheme)
				if err != nil {
					t.Fatal(err)
				}
				assertSameChar(t, what, got, want)
				if memo.Engine.Decodes != bypass.Engine.Decodes || bypass.Engine.SimulatedDecodes != bypass.Engine.Decodes {
					t.Fatalf("%s: %d decodes with the memo, %d (%d simulated) without; want equal and all simulated",
						what, memo.Engine.Decodes, bypass.Engine.Decodes, bypass.Engine.SimulatedDecodes)
				}
				decodes += memo.Engine.Decodes
				simulated += memo.Engine.SimulatedDecodes
			}
			if simulated >= decodes {
				t.Errorf("%s scale %d: %d of %d decodes simulated, want the memo to serve repeats",
					spec.Name, scale, simulated, decodes)
			}
		}
	}
}

// TestDecodeMemoConcurrent: the five schemes characterized concurrently
// on clones of one build equal sequential characterizations on another
// build, and simulate as many decodes: each key is resolved once however
// the clones interleave. Run it under -race.
func TestDecodeMemoConcurrent(t *testing.T) {
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
			return ch, sys.Engine.SimulatedDecodes
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
			t.Errorf("%s: %d decodes simulated concurrently, %d sequentially", spec.Name, gotSim, wantSim)
		}
	}
}

// TestDecodeMemoHitAllocs: a decode served from the memo allocates
// nothing. Forking onto a fresh network also checks that a memo hit
// leaves the network exactly as simulating the decode does.
func TestDecodeMemoHitAllocs(t *testing.T) {
	eng, llr := appmap.PaperDecode(t)
	if _, err := eng.Decode(llr); err != nil {
		t.Fatal(err)
	}
	net, err := noc.New(eng.Net.Grid, eng.Net.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	fork, err := eng.Fork(net)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := appmap.PaperDecode(t)
	appmap.SimulateAll(ref)
	decodeBoth(t, "first fork decode", engineSide(fork, nil), engineSide(ref, nil), llr)
	if fork.SimulatedDecodes != 0 {
		t.Fatal("the fork's first decode was simulated, want a memo hit")
	}
	// Two more decodes bring the network to the arbitration state every
	// later decode starts from.
	for range 2 {
		decodeBoth(t, "fork", engineSide(fork, nil), engineSide(ref, nil), llr)
	}
	simulated := fork.SimulatedDecodes
	got := testing.AllocsPerRun(5, func() {
		if _, err := fork.Decode(llr); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 || fork.SimulatedDecodes != simulated {
		t.Errorf("a memo hit allocates %.0f times and %d decodes were simulated, want 0 and 0",
			got, fork.SimulatedDecodes-simulated)
	}
}
