package hotnoc

import (
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
	two := []SweepPoint{
		ReactivePoint("A", cfg), ReactivePoint("A", cfg), ReactivePoint("A", cfg), ReactivePoint("A", cfg),
		ReactivePoint("A", rot), ReactivePoint("A", rot), ReactivePoint("A", rot), ReactivePoint("A", rot),
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
	pts := SweepGrid([]string{"A", "B", "C"}, schemes, []int{1, 4})
	// C's Rot gets a third period: it is the largest task, so it leads
	// the first round and C's X-Y Shift waits for the second.
	pts = append(pts, PeriodicPoint("C", core.Rot(), 8))
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
