package core_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"hotnoc/internal/chipcfg"
	"hotnoc/internal/core"
)

// bitDiff describes the first place where got and want differ, comparing
// every float64 by its bits (so -0 and 0 differ), or returns "".
func bitDiff(path string, got, want reflect.Value) string {
	switch got.Kind() {
	case reflect.Float64:
		if math.Float64bits(got.Float()) != math.Float64bits(want.Float()) {
			return fmt.Sprintf("%s = %v, want %v", path, got.Float(), want.Float())
		}
	case reflect.Struct:
		for i := range got.NumField() {
			if d := bitDiff(path+"."+got.Type().Field(i).Name, got.Field(i), want.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if got.Len() != want.Len() || got.IsNil() != want.IsNil() {
			return fmt.Sprintf("%s has %d entries (nil %v), want %d (nil %v)", path, got.Len(), got.IsNil(), want.Len(), want.IsNil())
		}
		for i := range got.Len() {
			if d := bitDiff(fmt.Sprintf("%s[%d]", path, i), got.Index(i), want.Index(i)); d != "" {
				return d
			}
		}
	default:
		if !reflect.DeepEqual(got.Interface(), want.Interface()) {
			return fmt.Sprintf("%s = %v, want %v", path, got.Interface(), want.Interface())
		}
	}
	return ""
}

// TestEvaluateSetMatchesEvaluate: every result of an evaluation set is
// bitwise, field by field, the lone Evaluate of its point, for all
// Figure 1 points (each configuration's five schemes as one set, so a
// lane is refilled) and for a period sweep with the migration-energy
// ablation (one scheme, six variants as one set) at test scale. Every
// result owns its slices.
func TestEvaluateSetMatchesEvaluate(t *testing.T) {
	for _, name := range []string{"A", "B", "C", "D", "E"} {
		spec, err := chipcfg.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		built, err := spec.Scaled(8).Build()
		if err != nil {
			t.Fatal(err)
		}
		sys := built.System
		var chs []*core.Characterization
		var cfgs []core.EvalConfig
		for _, s := range core.AllSchemes() {
			ch, err := sys.Characterize(s)
			if err != nil {
				t.Fatal(err)
			}
			chs = append(chs, ch)
			cfgs = append(cfgs, core.EvalConfig{})
		}
		type pointSet struct {
			chs  []*core.Characterization
			cfgs []core.EvalConfig
		}
		sets := []pointSet{{chs, cfgs}}
		if name == "A" {
			var sweep pointSet
			for _, blocks := range []int{1, 4, 8} {
				for _, excl := range []bool{false, true} {
					sweep.chs = append(sweep.chs, chs[0])
					sweep.cfgs = append(sweep.cfgs, core.EvalConfig{BlocksPerPeriod: blocks, ExcludeMigrationEnergy: excl})
				}
			}
			sets = append(sets, sweep)
		}
		for k, set := range sets {
			chs, cfgs := set.chs, set.cfgs
			got, err := sys.EvaluateSet(chs, cfgs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				alone, err := sys.Evaluate(chs[i], cfgs[i])
				if err != nil {
					t.Fatal(err)
				}
				if d := bitDiff("RunResult", reflect.ValueOf(got[i]), reflect.ValueOf(alone)); d != "" {
					t.Fatalf("config %s set %d point %d (%s, %+v): %s", name, k, i, chs[i].SchemeName, cfgs[i], d)
				}
			}
			for i := 1; i < len(got); i++ {
				if &got[i].MigratedMaxTemps[0] == &got[0].MigratedMaxTemps[0] ||
					&got[i].BaselineMaxTemps[0] == &got[0].BaselineMaxTemps[0] ||
					&got[i].Legs[0] == &got[0].Legs[0] {
					t.Fatalf("config %s set %d: results 0 and %d share a slice", name, k, i)
				}
			}
		}
	}
}

// TestEvaluateSetErrorNamesPoint: a point that fails validation fails the
// set with a *core.EvalPointError naming it; Evaluate reports the same
// failure without an index.
func TestEvaluateSetErrorNamesPoint(t *testing.T) {
	spec, err := chipcfg.ByName("C")
	if err != nil {
		t.Fatal(err)
	}
	built, err := spec.Scaled(8).Build()
	if err != nil {
		t.Fatal(err)
	}
	sys := built.System
	ch, err := sys.Characterize(core.XYShift())
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.EvaluateSet([]*core.Characterization{ch, ch}, []core.EvalConfig{{}, {BlocksPerPeriod: -2}})
	var pe *core.EvalPointError
	if !errors.As(err, &pe) || pe.Point != 1 || pe.Err.Error() != "core: BlocksPerPeriod -2 < 1" {
		t.Fatalf("set error %v, want point 1's negative period", err)
	}
	if _, err := sys.Evaluate(ch, core.EvalConfig{BlocksPerPeriod: -2}); err == nil || errors.As(err, &pe) {
		t.Fatalf("lone error %v, want an unindexed failure", err)
	}
}

// TestEvaluateSetRejectsOverflowingPeriod: a period whose cycle count
// does not fit an int64 fails its point instead of wrapping into a
// shorter period.
func TestEvaluateSetRejectsOverflowingPeriod(t *testing.T) {
	spec, err := chipcfg.ByName("A")
	if err != nil {
		t.Fatal(err)
	}
	built, err := spec.Scaled(8).Build()
	if err != nil {
		t.Fatal(err)
	}
	sys := built.System
	ch, err := sys.Characterize(core.XYShift())
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.EvaluateSet([]*core.Characterization{ch, ch}, []core.EvalConfig{{}, {BlocksPerPeriod: math.MaxInt}})
	var pe *core.EvalPointError
	if !errors.As(err, &pe) || pe.Point != 1 || !strings.Contains(err.Error(), "overflows the cycle count") {
		t.Fatalf("set error %v, want point 1's overflowing cycle count", err)
	}
}
