package sim_test

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hotnoc"
	"hotnoc/internal/chipcfg"
	"hotnoc/internal/core"
)

// mixedGrid interleaves periodic and reactive points over two schemes so
// every (config, scheme) task carries both kinds.
func mixedGrid() []hotnoc.SweepPoint {
	return []hotnoc.SweepPoint{
		hotnoc.PeriodicPoint("A", core.XYShift(), 1),
		hotnoc.ReactivePoint("A", core.ReactiveConfig{Scheme: core.XYShift(), TriggerC: 84, SimBlocks: 200, WarmupBlocks: 100}),
		hotnoc.PeriodicPoint("A", core.Rot(), 4),
		hotnoc.ReactivePoint("A", core.ReactiveConfig{Scheme: core.Rot(), TriggerC: 83, SimBlocks: 200, WarmupBlocks: 100}),
		hotnoc.ReactivePoint("A", core.ReactiveConfig{Scheme: core.XYShift(), TriggerC: 82, SimBlocks: 200, WarmupBlocks: 100}),
		hotnoc.PeriodicPoint("A", core.XYShift(), 8),
	}
}

// TestMixedGridMatchesSerial: a grid mixing periodic and reactive points
// streams outcomes in point order with the result arm matching each
// point's kind, each arm bitwise identical to the fused serial evaluation
// on an independently built system.
func TestMixedGridMatchesSerial(t *testing.T) {
	pts := mixedGrid()
	outs, err := hotnoc.NewLab(hotnoc.WithScale(testScale), hotnoc.WithWorkers(4)).
		SweepAll(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(pts) {
		t.Fatalf("%d outcomes for %d points", len(outs), len(pts))
	}

	spec, err := chipcfg.ByName("A")
	if err != nil {
		t.Fatal(err)
	}
	built, err := spec.Scaled(testScale).Build()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		o := outs[i]
		if o.Point.Kind() != p.Kind() || o.Point.Scheme.Name != p.Scheme.Name {
			t.Fatalf("outcome %d is %s/%s, want %s/%s", i,
				o.Point.Kind(), o.Point.Scheme.Name, p.Kind(), p.Scheme.Name)
		}
		switch p.Kind() {
		case hotnoc.KindReactive:
			if o.Reactive == nil {
				t.Fatalf("reactive outcome %d carries no reactive result", i)
			}
			want, err := built.System.RunReactive(*p.Reactive)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*o.Reactive, want) {
				t.Errorf("point %d: reactive result differs from fused RunReactive", i)
			}
		default:
			if o.Reactive != nil {
				t.Fatalf("periodic outcome %d carries a reactive result", i)
			}
			want, err := built.System.Run(core.RunConfig{Scheme: p.Scheme, BlocksPerPeriod: p.Blocks})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(o.Result, want) {
				t.Errorf("point %d: periodic result differs from serial run", i)
			}
		}
	}
}

// TestMixedGridSharesCharacterizations: a mixed grid pays for each
// (config, scheme) orbit exactly once — reactive points reuse the
// characterization of periodic points with the same scheme and vice
// versa — and a repeat sweep performs zero NoC decodes. The decode
// counter is the deterministic witness: hit/miss counts can vary when
// concurrent tasks race on one key, decodes cannot.
func TestMixedGridSharesCharacterizations(t *testing.T) {
	r := hotnoc.NewLab(hotnoc.WithScale(testScale), hotnoc.WithWorkers(4))
	pts := mixedGrid() // 6 points, 2 distinct (config, scheme) pairs
	if _, err := r.SweepAll(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	decodes := r.Decodes()
	if decodes == 0 {
		t.Fatal("cold mixed sweep performed no decodes")
	}
	// A reference Lab characterizing just the two orbits (periodic
	// points only) sets the bar: the mixed grid must not decode more.
	ref := hotnoc.NewLab(hotnoc.WithScale(testScale))
	if _, err := ref.SweepAll(context.Background(), []hotnoc.SweepPoint{
		hotnoc.PeriodicPoint("A", core.XYShift(), 1), hotnoc.PeriodicPoint("A", core.Rot(), 1),
	}); err != nil {
		t.Fatal(err)
	}
	if decodes != ref.Decodes() {
		t.Fatalf("mixed grid performed %d decodes, want the two-orbit reference's %d",
			decodes, ref.Decodes())
	}
	if _, err := r.SweepAll(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if got := r.Decodes(); got != decodes {
		t.Fatalf("repeat mixed sweep performed %d extra NoC decodes, want 0", got-decodes)
	}
}

// TestMixedGridDeterministicAcrossWorkerCounts: kind mixing does not
// break the Lab's determinism guarantee.
func TestMixedGridDeterministicAcrossWorkerCounts(t *testing.T) {
	pts := mixedGrid()
	one, err := hotnoc.NewLab(hotnoc.WithScale(testScale), hotnoc.WithWorkers(1)).SweepAll(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	many, err := hotnoc.NewLab(hotnoc.WithScale(testScale), hotnoc.WithWorkers(8)).SweepAll(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range one {
		if !reflect.DeepEqual(one[i].Result, many[i].Result) ||
			!reflect.DeepEqual(one[i].Reactive, many[i].Reactive) {
			t.Fatalf("point %d: outcome depends on worker count", i)
		}
	}
}

// TestReactivePointValidation: malformed reactive points fail fast,
// naming the offending index, before any build or NoC work starts.
func TestReactivePointValidation(t *testing.T) {
	cases := []struct {
		name string
		pt   hotnoc.SweepPoint
		want string
	}{
		{"no scheme", hotnoc.SweepPoint{Config: "A", Reactive: &core.ReactiveConfig{TriggerC: 80}}, "no step function"},
		{"blocks on reactive", func() hotnoc.SweepPoint {
			p := hotnoc.ReactivePoint("A", core.ReactiveConfig{Scheme: core.Rot(), TriggerC: 80})
			p.Blocks = 4
			return p
		}(), "migration period"},
		{"ablation on reactive", func() hotnoc.SweepPoint {
			p := hotnoc.ReactivePoint("A", core.ReactiveConfig{Scheme: core.Rot(), TriggerC: 80})
			p.ExcludeMigrationEnergy = true
			return p
		}(), "migration-energy ablation"},
		{"scheme mismatch", func() hotnoc.SweepPoint {
			p := hotnoc.ReactivePoint("A", core.ReactiveConfig{Scheme: core.Rot(), TriggerC: 80})
			p.Scheme = core.XYShift()
			return p
		}(), "reactive config selects scheme"},
		{"negative horizon", hotnoc.ReactivePoint("A", core.ReactiveConfig{Scheme: core.Rot(), SimBlocks: -1}), "negative reactive horizon"},
		{"negative warmup", hotnoc.ReactivePoint("A", core.ReactiveConfig{Scheme: core.Rot(), WarmupBlocks: -1}), "negative reactive warmup"},
		{"unknown config", hotnoc.ReactivePoint("Z", core.ReactiveConfig{Scheme: core.Rot(), TriggerC: 80}), "Z"},
		{"NaN trigger", hotnoc.ReactivePoint("A", core.ReactiveConfig{Scheme: core.Rot(), TriggerC: math.NaN()}), "non-finite reactive trigger"},
		{"infinite trigger", hotnoc.ReactivePoint("A", core.ReactiveConfig{Scheme: core.Rot(), TriggerC: math.Inf(1)}), "non-finite reactive trigger"},
		{"NaN sensor resolution", hotnoc.ReactivePoint("A", core.ReactiveConfig{Scheme: core.Rot(), TriggerC: 80, SensorQuantC: math.NaN()}), "non-finite reactive sensor resolution"},
		{"-Inf sensor resolution", hotnoc.ReactivePoint("A", core.ReactiveConfig{Scheme: core.Rot(), TriggerC: 80, SensorQuantC: math.Inf(-1)}), "non-finite reactive sensor resolution"},
		{"NaN step", hotnoc.ReactivePoint("A", core.ReactiveConfig{Scheme: core.Rot(), TriggerC: 80, Dt: math.NaN()}), "non-finite reactive step"},
		{"infinite step", hotnoc.ReactivePoint("A", core.ReactiveConfig{Scheme: core.Rot(), TriggerC: 80, Dt: math.Inf(1)}), "non-finite reactive step"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := hotnoc.NewLab(hotnoc.WithScale(testScale))
			pts := []hotnoc.SweepPoint{hotnoc.PeriodicPoint("A", core.Rot(), 1), tc.pt}
			_, err := r.SweepAll(context.Background(), pts)
			if err == nil || !strings.Contains(err.Error(), "point 1") ||
				!strings.Contains(err.Error(), tc.want) {
				t.Fatalf("bad point not rejected with index and cause %q (err %v)", tc.want, err)
			}
			if r.Decodes() != 0 {
				t.Fatal("validation failure still performed NoC work")
			}
		})
	}
}

// TestReactiveExtremeTimelineStride: a reactive point whose timeline
// stride is math.MaxInt passes validation and runs to an outcome with one
// recorded boundary, alone and beside an every-block point in one task.
// Sizing the timeline as (SimBlocks+PeaksEvery-1)/PeaksEvery overflowed
// here to a negative capacity and panicked the worker.
func TestReactiveExtremeTimelineStride(t *testing.T) {
	wide := core.ReactiveConfig{Scheme: core.Rot(), TriggerC: 80, SimBlocks: 2, PeaksEvery: math.MaxInt}
	every := wide
	every.PeaksEvery = 1
	for _, pts := range [][]hotnoc.SweepPoint{{hotnoc.ReactivePoint("A", wide)}, {hotnoc.ReactivePoint("A", every), hotnoc.ReactivePoint("A", wide)}} {
		outs, err := hotnoc.NewLab(hotnoc.WithScale(testScale), hotnoc.WithWorkers(1)).SweepAll(context.Background(), pts)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(outs[len(outs)-1].Reactive.BlockPeaks); got != 1 {
			t.Fatalf("%d points: stride MaxInt recorded %d boundaries, want 1", len(pts), got)
		}
	}
}

// TestChunkedReactiveSweepAccountsOncePerKey: however many chunk tasks a
// reactive sweep splits into, each (config, scheme) key produces exactly
// one StageCharacterizeDone event and one hit-or-miss count per sweep —
// the counters measure orbits, not scheduling artifacts.
func TestChunkedReactiveSweepAccountsOncePerKey(t *testing.T) {
	cfg := core.ReactiveConfig{Scheme: core.XYShift(), TriggerC: 84, SimBlocks: 100, WarmupBlocks: 50}
	pts := []hotnoc.SweepPoint{hotnoc.ReactivePoint("A", cfg), hotnoc.ReactivePoint("A", cfg), hotnoc.ReactivePoint("A", cfg), hotnoc.ReactivePoint("A", cfg)}

	var mu sync.Mutex
	done := 0
	r := hotnoc.NewLab(hotnoc.WithScale(testScale), hotnoc.WithWorkers(4), hotnoc.WithProgress(func(ev hotnoc.Event) {
		if ev.Stage == hotnoc.StageCharacterizeDone {
			mu.Lock()
			done++
			mu.Unlock()
		}
	}))
	if _, err := r.SweepAll(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if done != 1 {
		t.Fatalf("chunked reactive sweep emitted %d characterize-done events, want 1", done)
	}
	st := r.Stats()
	if st.CacheHits+st.CacheMisses != 1 {
		t.Fatalf("chunked reactive sweep recorded %d characterization requests, want 1", st.CacheHits+st.CacheMisses)
	}
	// A second sweep over the same grid accounts once more, as a hit.
	if _, err := r.SweepAll(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	st = r.Stats()
	if st.CacheHits+st.CacheMisses != 2 || st.CacheHits == 0 {
		t.Fatalf("repeat sweep recorded %d hits / %d misses, want one more request, a hit", st.CacheHits, st.CacheMisses)
	}
}

// TestPointKind: the zero reactive field means periodic, preserving the
// meaning of pre-unification literals.
func TestPointKind(t *testing.T) {
	if k := (hotnoc.SweepPoint{Config: "A", Scheme: core.Rot()}).Kind(); k != hotnoc.KindPeriodic {
		t.Fatalf("bare literal has kind %q, want %q", k, hotnoc.KindPeriodic)
	}
	if k := hotnoc.ReactivePoint("A", core.ReactiveConfig{Scheme: core.Rot()}).Kind(); k != hotnoc.KindReactive {
		t.Fatalf("Reactive constructor built kind %q, want %q", k, hotnoc.KindReactive)
	}
	if k := hotnoc.PeriodicPoint("A", core.Rot(), 4).Kind(); k != hotnoc.KindPeriodic {
		t.Fatalf("Periodic constructor built kind %q, want %q", k, hotnoc.KindPeriodic)
	}
}
