package sim

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hotnoc/internal/chipcfg"
	"hotnoc/internal/core"
)

// mixedGrid interleaves periodic and reactive points over two schemes so
// every (config, scheme) task carries both kinds.
func mixedGrid() []Point {
	return []Point{
		Periodic("A", core.XYShift(), 1),
		Reactive("A", core.ReactiveConfig{Scheme: core.XYShift(), TriggerC: 84, SimBlocks: 200, WarmupBlocks: 100}),
		Periodic("A", core.Rot(), 4),
		Reactive("A", core.ReactiveConfig{Scheme: core.Rot(), TriggerC: 83, SimBlocks: 200, WarmupBlocks: 100}),
		Reactive("A", core.ReactiveConfig{Scheme: core.XYShift(), TriggerC: 82, SimBlocks: 200, WarmupBlocks: 100}),
		Periodic("A", core.XYShift(), 8),
	}
}

// TestMixedGridMatchesSerial: a grid mixing periodic and reactive points
// streams outcomes in point order with the result arm matching each
// point's kind, each arm bitwise identical to the fused serial evaluation
// on an independently built system.
func TestMixedGridMatchesSerial(t *testing.T) {
	pts := mixedGrid()
	outs, err := NewRunner(Options{Scale: testScale, Workers: 4}).
		Run(context.Background(), pts)
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
		case KindReactive:
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
	r := NewRunner(Options{Scale: testScale, Workers: 4})
	pts := mixedGrid() // 6 points, 2 distinct (config, scheme) pairs
	if _, err := r.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	decodes := r.Decodes()
	if decodes == 0 {
		t.Fatal("cold mixed sweep performed no decodes")
	}
	// A reference runner characterizing just the two orbits (periodic
	// points only) sets the bar: the mixed grid must not decode more.
	ref := NewRunner(Options{Scale: testScale})
	if _, err := ref.Run(context.Background(), []Point{
		Periodic("A", core.XYShift(), 1), Periodic("A", core.Rot(), 1),
	}); err != nil {
		t.Fatal(err)
	}
	if decodes != ref.Decodes() {
		t.Fatalf("mixed grid performed %d decodes, want the two-orbit reference's %d",
			decodes, ref.Decodes())
	}
	if _, err := r.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if got := r.Decodes(); got != decodes {
		t.Fatalf("repeat mixed sweep performed %d extra NoC decodes, want 0", got-decodes)
	}
}

// TestMixedGridDeterministicAcrossWorkerCounts: kind mixing does not
// break the runner's determinism guarantee.
func TestMixedGridDeterministicAcrossWorkerCounts(t *testing.T) {
	pts := mixedGrid()
	one, err := NewRunner(Options{Scale: testScale, Workers: 1}).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	many, err := NewRunner(Options{Scale: testScale, Workers: 8}).Run(context.Background(), pts)
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
		pt   Point
		want string
	}{
		{"no scheme", Point{Config: "A", Reactive: &core.ReactiveConfig{TriggerC: 80}}, "no step function"},
		{"blocks on reactive", func() Point {
			p := Reactive("A", core.ReactiveConfig{Scheme: core.Rot(), TriggerC: 80})
			p.Blocks = 4
			return p
		}(), "migration period"},
		{"ablation on reactive", func() Point {
			p := Reactive("A", core.ReactiveConfig{Scheme: core.Rot(), TriggerC: 80})
			p.ExcludeMigrationEnergy = true
			return p
		}(), "migration-energy ablation"},
		{"scheme mismatch", func() Point {
			p := Reactive("A", core.ReactiveConfig{Scheme: core.Rot(), TriggerC: 80})
			p.Scheme = core.XYShift()
			return p
		}(), "reactive config selects scheme"},
		{"negative horizon", Reactive("A", core.ReactiveConfig{Scheme: core.Rot(), SimBlocks: -1}), "negative reactive horizon"},
		{"negative warmup", Reactive("A", core.ReactiveConfig{Scheme: core.Rot(), WarmupBlocks: -1}), "negative reactive warmup"},
		{"unknown config", Reactive("Z", core.ReactiveConfig{Scheme: core.Rot(), TriggerC: 80}), "Z"},
		{"NaN trigger", Reactive("A", core.ReactiveConfig{Scheme: core.Rot(), TriggerC: math.NaN()}), "non-finite reactive trigger"},
		{"infinite trigger", Reactive("A", core.ReactiveConfig{Scheme: core.Rot(), TriggerC: math.Inf(1)}), "non-finite reactive trigger"},
		{"NaN sensor resolution", Reactive("A", core.ReactiveConfig{Scheme: core.Rot(), TriggerC: 80, SensorQuantC: math.NaN()}), "non-finite reactive sensor resolution"},
		{"-Inf sensor resolution", Reactive("A", core.ReactiveConfig{Scheme: core.Rot(), TriggerC: 80, SensorQuantC: math.Inf(-1)}), "non-finite reactive sensor resolution"},
		{"NaN step", Reactive("A", core.ReactiveConfig{Scheme: core.Rot(), TriggerC: 80, Dt: math.NaN()}), "non-finite reactive step"},
		{"infinite step", Reactive("A", core.ReactiveConfig{Scheme: core.Rot(), TriggerC: 80, Dt: math.Inf(1)}), "non-finite reactive step"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRunner(Options{Scale: testScale})
			pts := []Point{Periodic("A", core.Rot(), 1), tc.pt}
			_, err := r.Run(context.Background(), pts)
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
	for _, pts := range [][]Point{{Reactive("A", wide)}, {Reactive("A", every), Reactive("A", wide)}} {
		outs, err := NewRunner(Options{Scale: testScale, Workers: 1}).Run(context.Background(), pts)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(outs[len(outs)-1].Reactive.BlockPeaks); got != 1 {
			t.Fatalf("%d points: stride MaxInt recorded %d boundaries, want 1", len(pts), got)
		}
	}
}

// TestGroupPointsSplitsReactiveCells: reactive cells of one (config,
// scheme) spread across their share of the workers as chunk tasks — a
// single-scheme trigger sweep must not serialize on one worker — while
// periodic cells keep one shared task, and every cell lands in exactly
// one task.
func TestGroupPointsSplitsReactiveCells(t *testing.T) {
	cfg := core.ReactiveConfig{Scheme: core.XYShift(), TriggerC: 80}
	pts := []Point{
		Periodic("A", core.XYShift(), 1),
		Reactive("A", cfg), Reactive("A", cfg), Reactive("A", cfg), Reactive("A", cfg),
		Periodic("A", core.XYShift(), 4),
	}
	tasks := groupPoints(pts, 4)
	var periodicTasks, reactiveTasks int
	seen := map[int]bool{}
	for _, tk := range tasks {
		if pts[tk.cells[0]].Kind() == KindReactive {
			reactiveTasks++
		} else {
			periodicTasks++
		}
		for _, c := range tk.cells {
			if seen[c] {
				t.Fatalf("cell %d scheduled twice", c)
			}
			seen[c] = true
		}
	}
	if len(seen) != len(pts) {
		t.Fatalf("%d cells scheduled, want %d", len(seen), len(pts))
	}
	if periodicTasks != 1 {
		t.Fatalf("%d periodic tasks, want 1 shared task", periodicTasks)
	}
	if reactiveTasks != 4 {
		t.Fatalf("4 reactive cells over 4 workers scheduled as %d tasks, want 4", reactiveTasks)
	}
	// A single worker keeps one task per group — no pointless clones.
	if got := len(groupPoints(pts, 1)); got != 2 {
		t.Fatalf("workers=1 produced %d tasks, want 2", got)
	}
	// Two schemes' trigger sweeps over two workers: each scheme's share
	// is one worker, so its four cells stay one task, one lockstep set.
	rot := core.ReactiveConfig{Scheme: core.Rot(), TriggerC: 80}
	two := []Point{
		Reactive("A", cfg), Reactive("A", cfg), Reactive("A", cfg), Reactive("A", cfg),
		Reactive("A", rot), Reactive("A", rot), Reactive("A", rot), Reactive("A", rot),
	}
	for _, tk := range groupPoints(two, 2) {
		if len(tk.cells) != 4 {
			t.Fatalf("two 4-cell schemes over 2 workers: a task of %d cells, want 4", len(tk.cells))
		}
	}
}

// TestGroupPointsInterleavesConfigs: a configuration-major grid is
// dealt in rounds across configurations, so a second configuration's
// build starts while the first is still running. Each round takes every
// configuration's largest remaining task, largest first, and every cell
// lands in exactly one task.
func TestGroupPointsInterleavesConfigs(t *testing.T) {
	schemes := []core.Scheme{core.XYShift(), core.Rot()}
	pts := Grid([]string{"A", "B", "C"}, schemes, []int{1, 4})
	// C's Rot gets a third period: it is the largest task, so it leads
	// the first round and C's X-Y Shift waits for the second.
	pts = append(pts, Periodic("C", core.Rot(), 8))
	var got []string
	seen := map[int]bool{}
	for _, tk := range groupPoints(pts, 2) {
		got = append(got, tk.config+"/"+tk.scheme.Name)
		for _, c := range tk.cells {
			if seen[c] || pts[c].Config != tk.config || pts[c].Scheme.Name != tk.scheme.Name {
				t.Fatalf("cell %d misplaced in task %s/%s", c, tk.config, tk.scheme.Name)
			}
			seen[c] = true
		}
	}
	if len(seen) != len(pts) {
		t.Fatalf("%d cells scheduled, want %d", len(seen), len(pts))
	}
	x, r := schemes[0].Name, schemes[1].Name
	want := []string{"C/" + r, "A/" + x, "B/" + x, "A/" + r, "B/" + r, "C/" + x}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("task order %v, want %v", got, want)
	}
}

// TestChunkedReactiveSweepAccountsOncePerKey: however many chunk tasks a
// reactive sweep splits into, each (config, scheme) key produces exactly
// one StageCharacterizeDone event and one hit-or-miss count per sweep —
// the counters measure orbits, not scheduling artifacts.
func TestChunkedReactiveSweepAccountsOncePerKey(t *testing.T) {
	cfg := core.ReactiveConfig{Scheme: core.XYShift(), TriggerC: 84, SimBlocks: 100, WarmupBlocks: 50}
	pts := []Point{Reactive("A", cfg), Reactive("A", cfg), Reactive("A", cfg), Reactive("A", cfg)}

	var mu sync.Mutex
	done := 0
	r := NewRunner(Options{Scale: testScale, Workers: 4, Progress: func(ev Event) {
		if ev.Stage == StageCharacterizeDone {
			mu.Lock()
			done++
			mu.Unlock()
		}
	}})
	if _, err := r.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if done != 1 {
		t.Fatalf("chunked reactive sweep emitted %d characterize-done events, want 1", done)
	}
	hits, misses := r.CacheStats()
	if hits+misses != 1 {
		t.Fatalf("chunked reactive sweep recorded %d characterization requests, want 1", hits+misses)
	}
	// A second sweep over the same grid accounts once more, as a hit.
	if _, err := r.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	hits, misses = r.CacheStats()
	if hits+misses != 2 || hits == 0 {
		t.Fatalf("repeat sweep recorded %d hits / %d misses, want one more request, a hit", hits, misses)
	}
}

// TestPointKind: the zero reactive field means periodic, preserving the
// meaning of pre-unification literals.
func TestPointKind(t *testing.T) {
	if k := (Point{Config: "A", Scheme: core.Rot()}).Kind(); k != KindPeriodic {
		t.Fatalf("bare literal has kind %q, want %q", k, KindPeriodic)
	}
	if k := Reactive("A", core.ReactiveConfig{Scheme: core.Rot()}).Kind(); k != KindReactive {
		t.Fatalf("Reactive constructor built kind %q, want %q", k, KindReactive)
	}
	if k := Periodic("A", core.Rot(), 4).Kind(); k != KindPeriodic {
		t.Fatalf("Periodic constructor built kind %q, want %q", k, KindPeriodic)
	}
}
