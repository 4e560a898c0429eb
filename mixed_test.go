package hotnoc

import (
	"context"
	"reflect"
	"testing"

	"hotnoc/internal/core"
)

// TestGroupPointsSplitsReactiveCells: reactive cells of one (config,
// scheme) spread across their share of the workers as chunk tasks — a
// single-scheme trigger sweep must not serialize on one worker — while
// periodic cells keep one shared task, and every cell lands in exactly
// one task.
func TestGroupPointsSplitsReactiveCells(t *testing.T) {
	cfg := core.ReactiveConfig{Scheme: core.XYShift(), TriggerC: 80}
	pts := []SweepPoint{
		PeriodicPoint("A", core.XYShift(), 1),
		ReactivePoint("A", cfg), ReactivePoint("A", cfg), ReactivePoint("A", cfg), ReactivePoint("A", cfg),
		PeriodicPoint("A", core.XYShift(), 4),
	}
	tasks := groupPoints(pts, 4, nil)
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
	if got := len(groupPoints(pts, 1, nil)); got != 2 {
		t.Fatalf("workers=1 produced %d tasks, want 2", got)
	}
	// Two schemes' trigger sweeps over two workers: each scheme's share
	// is one worker, so its four cells stay one task, one lockstep set.
	rot := core.ReactiveConfig{Scheme: core.Rot(), TriggerC: 80}
	two := []SweepPoint{
		ReactivePoint("A", cfg), ReactivePoint("A", cfg), ReactivePoint("A", cfg), ReactivePoint("A", cfg),
		ReactivePoint("A", rot), ReactivePoint("A", rot), ReactivePoint("A", rot), ReactivePoint("A", rot),
	}
	for _, tk := range groupPoints(two, 2, nil) {
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
	pts := SweepGrid([]string{"A", "B", "C"}, schemes, []int{1, 4})
	// C's Rot gets a third period: it is the largest task, so it leads
	// the first round and C's X-Y Shift waits for the second.
	pts = append(pts, PeriodicPoint("C", core.Rot(), 8))
	var got []string
	seen := map[int]bool{}
	for _, tk := range groupPoints(pts, 2, nil) {
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

// TestGroupPointsCachedConfigSets: periodic points whose characterization
// is in memory form one task per configuration, across schemes and
// periods, split only by the configuration's share of the workers, while
// uncached points keep one task per (configuration, scheme). On a Lab, a
// warm sweep of such configuration sets gives outcomes identical to the
// cold sweep of the same grid, at 1, 2 and 4 workers.
func TestGroupPointsCachedConfigSets(t *testing.T) {
	pts := SweepGrid([]string{"A", "B"}, Schemes(), []int{1, 4})
	rot := core.Rot().Name
	cached := func(config, scheme string) bool { return config == "A" && scheme != rot }
	check := func(workers, wantTasks, wantSets int) {
		t.Helper()
		tasks := groupPoints(pts, workers, cached)
		seen, sets := map[int]bool{}, 0
		for _, tk := range tasks {
			for _, c := range tk.cells {
				p := pts[c]
				inSet := tk.set
				if seen[c] || p.Config != tk.config || inSet != cached(p.Config, p.Scheme.Name) ||
					(!inSet && p.Scheme.Name != tk.scheme.Name) {
					t.Fatalf("workers %d: cell %d (%s/%s) misplaced in task %s/%q", workers, c, p.Config, p.Scheme.Name, tk.config, tk.scheme.Name)
				}
				seen[c] = true
			}
			if tk.set {
				sets++
			}
		}
		if len(seen) != len(pts) || len(tasks) != wantTasks || sets != wantSets {
			t.Fatalf("workers %d: %d cells in %d tasks (%d configuration sets), want %d in %d (%d)",
				workers, len(seen), len(tasks), sets, len(pts), wantTasks, wantSets)
		}
	}
	// A's four cached schemes × two periods are one set; A's Rot and
	// B's five schemes keep their own tasks. Four workers split the set
	// four ways.
	check(1, 7, 1)
	check(4, 10, 4)

	grid := SweepGrid([]string{"A", "C"}, Schemes(), []int{1, 4})
	grid = append(grid, SweepPoint{Config: "C", Scheme: core.Rot(), Blocks: 2, ExcludeMigrationEnergy: true})
	var want []SweepOutcome
	for _, workers := range []int{1, 2, 4} {
		lab := NewLab(WithScale(testScale), WithWorkers(workers))
		cold, err := lab.SweepAll(context.Background(), grid)
		if err != nil {
			t.Fatal(err)
		}
		inMemory := func(config, scheme string) bool {
			return lab.chars.inMemory(charKey{Config: config, Scheme: scheme, Scale: testScale})
		}
		// Each configuration's share of the workers, rounded up: A's 10
		// cells and C's 11 make 1+1, 1+2 and 2+3 sets.
		tasks := groupPoints(grid, workers, inMemory)
		if want := map[int]int{1: 2, 2: 3, 4: 5}[workers]; len(tasks) != want {
			t.Fatalf("warm grid on %d workers grouped into %d tasks, want %d", workers, len(tasks), want)
		}
		for _, tk := range tasks {
			if !tk.set {
				t.Fatalf("warm grid on %d workers: task %s/%s is not a configuration set", workers, tk.config, tk.scheme.Name)
			}
		}
		warm, err := lab.SweepAll(context.Background(), grid)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = cold
		}
		for i := range grid {
			if !reflect.DeepEqual(cold[i].Result, want[i].Result) || !reflect.DeepEqual(warm[i].Result, want[i].Result) {
				t.Fatalf("%d workers: point %d (%s/%s blocks %d) differs from the 1-worker cold sweep",
					workers, i, grid[i].Config, grid[i].Scheme.Name, grid[i].Blocks)
			}
		}
	}
}
