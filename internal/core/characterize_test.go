package core

import (
	"reflect"
	"testing"
)

// TestSplitMatchesRunAllSchemes: Characterize followed by Evaluate
// reproduces the fused Run result bitwise for every scheme on a scaled
// configuration.
func TestSplitMatchesRunAllSchemes(t *testing.T) {
	fusedSys := buildSystem(t, 4)
	splitSys := buildSystem(t, 4)
	for _, s := range AllSchemes() {
		fused, err := fusedSys.Run(RunConfig{Scheme: s})
		if err != nil {
			t.Fatalf("%s: fused run: %v", s.Name, err)
		}
		ch, err := splitSys.Characterize(s)
		if err != nil {
			t.Fatalf("%s: characterize: %v", s.Name, err)
		}
		split, err := splitSys.Evaluate(ch, EvalConfig{})
		if err != nil {
			t.Fatalf("%s: evaluate: %v", s.Name, err)
		}
		if !reflect.DeepEqual(fused, split) {
			t.Errorf("%s: split result differs from fused Run\nfused: %+v\nsplit: %+v",
				s.Name, fused, split)
		}
	}
}

// TestEvaluateSharesCharacterization: a three-period sweep on the split
// pipeline matches three fused Runs bitwise while decoding a third of the
// blocks — the NoC characterization is period-independent and runs once.
func TestEvaluateSharesCharacterization(t *testing.T) {
	fusedSys := buildSystem(t, 4)
	splitSys := buildSystem(t, 4)
	blocks := []int{1, 4, 8}

	ch, err := splitSys.Characterize(XYShift())
	if err != nil {
		t.Fatal(err)
	}
	splitDecodes := splitSys.Engine.Decodes
	fusedStart := fusedSys.Engine.Decodes
	for _, b := range blocks {
		fused, err := fusedSys.Run(RunConfig{Scheme: XYShift(), BlocksPerPeriod: b})
		if err != nil {
			t.Fatal(err)
		}
		split, err := splitSys.Evaluate(ch, EvalConfig{BlocksPerPeriod: b})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fused, split) {
			t.Errorf("blocks=%d: shared-characterization result differs from fused Run", b)
		}
	}
	if splitSys.Engine.Decodes != splitDecodes {
		t.Errorf("Evaluate decoded %d blocks; the thermal stage must not touch the NoC",
			splitSys.Engine.Decodes-splitDecodes)
	}
	fusedDecodes := fusedSys.Engine.Decodes - fusedStart
	if fusedDecodes < 2*splitDecodes {
		t.Errorf("split pipeline decoded %d blocks vs %d fused; want >= 2x fewer",
			splitDecodes, fusedDecodes)
	}
}

// TestEvaluateValidation covers the evaluation-stage error paths.
func TestEvaluateValidation(t *testing.T) {
	sys := buildSystem(t, 4)
	if _, err := sys.Evaluate(nil, EvalConfig{}); err == nil {
		t.Error("nil characterization accepted")
	}
	ch, err := sys.Characterize(Rot())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Evaluate(ch, EvalConfig{BlocksPerPeriod: -2}); err == nil {
		t.Error("negative period accepted")
	}
	if _, err := sys.Characterize(Scheme{}); err == nil {
		t.Error("nil scheme accepted")
	}
}

// TestCloneRunsIdentically: a clone — even one taken from a system that
// has already run — reproduces the original's results bitwise and leaves
// the original untouched.
func TestCloneRunsIdentically(t *testing.T) {
	sys := buildSystem(t, 4)
	orig, err := sys.Run(RunConfig{Scheme: Rot()})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := sys.Clone()
	if err != nil {
		t.Fatal(err)
	}
	cloned, err := cl.Run(RunConfig{Scheme: Rot()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, cloned) {
		t.Error("clone's run differs from the original's")
	}
	if cl.Engine == sys.Engine || cl.Migrator == sys.Migrator ||
		cl.Engine.Net == sys.Engine.Net {
		t.Error("clone shares mutable machinery with the original")
	}
	if cl.Therm != sys.Therm {
		t.Error("clone does not share the read-only thermal network")
	}
	again, err := sys.Run(RunConfig{Scheme: Rot()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, again) {
		t.Error("running the clone perturbed the original system")
	}
}
