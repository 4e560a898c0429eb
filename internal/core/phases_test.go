package core

import (
	"math/rand"
	"testing"

	"hotnoc/internal/geom"
)

// schemeSteps returns each scheme's first-step transform on an n x n grid.
func schemeSteps(n int) []geom.Transform {
	g := geom.NewGrid(n, n)
	var out []geom.Transform
	for _, s := range AllSchemes() {
		out = append(out, s.Step(0, g))
	}
	return out
}

// TestPhasesCoverAllTransfers: every moved PE appears in exactly one phase.
func TestPhasesCoverAllTransfers(t *testing.T) {
	for _, n := range []int{4, 5} {
		g := geom.NewGrid(n, n)
		for _, tr := range schemeSteps(n) {
			perm := geom.FromTransform(g, tr)
			phases := PlanPhases(g, perm)
			seen := map[int]int{}
			total := 0
			for _, ph := range phases {
				for _, xfer := range ph {
					if perm.Dst(xfer.Src) != xfer.Dst {
						t.Fatalf("%s: transfer %d->%d not in permutation", tr.Name, xfer.Src, xfer.Dst)
					}
					seen[xfer.Src]++
					total++
				}
			}
			moved := perm.Len() - len(perm.FixedPoints())
			if total != moved {
				t.Fatalf("%s on %dx%d: %d transfers planned, want %d", tr.Name, n, n, total, moved)
			}
			for src, count := range seen {
				if count != 1 {
					t.Fatalf("%s: source %d appears %d times", tr.Name, src, count)
				}
			}
		}
	}
}

// TestPhasesConflictFree property: within any phase, no directed link is
// used by two transfers — the congestion-freedom guarantee.
func TestPhasesConflictFree(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	check := func(g geom.Grid, perm geom.Perm) {
		t.Helper()
		for pi, ph := range PlanPhases(g, perm) {
			used := map[link]struct{}{}
			for _, xfer := range ph {
				for _, l := range xyRouteLinks(g, g.Coord(xfer.Src), g.Coord(xfer.Dst), nil) {
					if _, clash := used[l]; clash {
						t.Fatalf("phase %d reuses link %v", pi, l)
					}
					used[l] = struct{}{}
				}
			}
		}
	}
	// The paper's schemes on both grids.
	for _, n := range []int{4, 5} {
		g := geom.NewGrid(n, n)
		for _, tr := range schemeSteps(n) {
			check(g, geom.FromTransform(g, tr))
		}
	}
	// Random permutations for the general property.
	for iter := 0; iter < 50; iter++ {
		n := 2 + r.Intn(5)
		g := geom.NewGrid(n, n)
		perm, err := geom.NewPerm(g, r.Perm(g.N()))
		if err != nil {
			t.Fatal(err)
		}
		check(g, perm)
	}
}

// TestPhasesDeterministic: the plan is identical across calls — migration
// time is a pure function of the permutation, the paper's real-time
// requirement.
func TestPhasesDeterministic(t *testing.T) {
	g := geom.NewGrid(5, 5)
	perm := geom.FromTransform(g, geom.Rotation(5))
	a := PlanPhases(g, perm)
	b := PlanPhases(g, perm)
	if len(a) != len(b) {
		t.Fatalf("phase counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("phase %d sizes differ", i)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("phase %d transfer %d differs", i, j)
			}
		}
	}
}

// TestIdentityNeedsNoPhases: nothing to move, nothing to plan.
func TestIdentityNeedsNoPhases(t *testing.T) {
	g := geom.NewGrid(4, 4)
	if phases := PlanPhases(g, geom.IdentityPerm(g)); len(phases) != 0 {
		t.Fatalf("identity produced %d phases", len(phases))
	}
}

// TestRotationNeedsMostPhases: rotation's long, heavily-overlapping routes
// need at least as many phases as any other scheme on both grids — the
// structural reason it has the largest migration time overhead.
func TestRotationNeedsMostPhases(t *testing.T) {
	for _, n := range []int{4, 5} {
		g := geom.NewGrid(n, n)
		rot := PhaseCount(g, geom.Rotation(n))
		for _, s := range AllSchemes() {
			if s.Name == "Rot" {
				continue
			}
			if c := PhaseCount(g, s.Step(0, g)); c > rot {
				t.Errorf("%dx%d: %s needs %d phases > rotation's %d", n, n, s.Name, c, rot)
			}
		}
	}
}

// TestShiftPhasesSmall: the uniform-translation schemes pack into very few
// phases (their routes barely overlap), which keeps their migrations
// short.
func TestShiftPhasesSmall(t *testing.T) {
	for _, n := range []int{4, 5} {
		g := geom.NewGrid(n, n)
		if c := PhaseCount(g, geom.XTranslate(n, 1)); c > 2 {
			t.Errorf("right shift on %dx%d needs %d phases, want <= 2", n, n, c)
		}
		if c := PhaseCount(g, geom.XYTranslate(n, n, 1, 1)); c > 3 {
			t.Errorf("X-Y shift on %dx%d needs %d phases, want <= 3", n, n, c)
		}
	}
}

// TestXYRouteLinksLength: route link count equals the Manhattan distance.
func TestXYRouteLinksLength(t *testing.T) {
	g := geom.NewGrid(6, 6)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		a := g.Coord(r.Intn(g.N()))
		b := g.Coord(r.Intn(g.N()))
		if got := len(xyRouteLinks(g, a, b, nil)); got != a.Manhattan(b) {
			t.Fatalf("route %v->%v has %d links, want %d", a, b, got, a.Manhattan(b))
		}
	}
}
