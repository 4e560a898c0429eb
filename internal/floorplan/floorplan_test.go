package floorplan

import (
	"math"
	"testing"
	"testing/quick"

	"hotnoc/internal/geom"
)

func TestUnitArea(t *testing.T) {
	// The paper: each functional unit has an area of 4.36 mm².
	if got := UnitSideM * UnitSideM; math.Abs(got-4.36e-6) > 1e-12 {
		t.Fatalf("unit block area = %g m², want 4.36e-6", got)
	}
}

func TestMeshGeometry(t *testing.T) {
	for _, n := range []int{1, 2, 4, 5, 8} {
		g := geom.NewGrid(n, n)
		fp := NewMesh(g)
		if err := fp.Validate(); err != nil {
			t.Fatalf("%dx%d mesh invalid: %v", n, n, err)
		}
		if fp.N() != n*n {
			t.Fatalf("%dx%d mesh has %d blocks", n, n, fp.N())
		}
		wantArea := float64(n*n) * UnitAreaM2
		if math.Abs(fp.DieArea()-wantArea) > 1e-12 {
			t.Fatalf("%dx%d die area %g, want %g", n, n, fp.DieArea(), wantArea)
		}
	}
}

func TestBlockLookup(t *testing.T) {
	g := geom.NewGrid(5, 5)
	fp := NewMesh(g)
	for _, c := range g.Coords() {
		b := fp.Blocks[g.Index(c)]
		if b.Cell != c {
			t.Fatalf("block at %v has cell %v", c, b.Cell)
		}
		if math.Abs(b.X-float64(c.X)*UnitSideM) > 1e-15 ||
			math.Abs(b.Y-float64(c.Y)*UnitSideM) > 1e-15 {
			t.Fatalf("block at %v sits at (%g,%g)", c, b.X, b.Y)
		}
	}
}

// TestAdjacencyCount verifies the mesh adjacency count 2·N·(N-1) for an
// NxN grid and that each adjacency shares a full block edge.
func TestAdjacencyCount(t *testing.T) {
	for _, n := range []int{2, 4, 5} {
		fp := NewMesh(geom.NewGrid(n, n))
		adj := fp.Adjacencies()
		want := 2 * n * (n - 1)
		if len(adj) != want {
			t.Fatalf("%dx%d: %d adjacencies, want %d", n, n, len(adj), want)
		}
		for _, a := range adj {
			if a.A >= a.B {
				t.Fatalf("adjacency (%d,%d) not ordered", a.A, a.B)
			}
			if math.Abs(a.SharedLen-UnitSideM) > 1e-15 {
				t.Fatalf("adjacency (%d,%d) shares %g m, want %g", a.A, a.B, a.SharedLen, UnitSideM)
			}
		}
	}
}

// TestAdjacencyUnique property-checks that no block pair appears twice.
func TestAdjacencyUnique(t *testing.T) {
	f := func(wRaw, hRaw uint8) bool {
		g := geom.NewGrid(1+int(wRaw%7), 1+int(hRaw%7))
		seen := map[[2]int]bool{}
		for _, a := range NewMesh(g).Adjacencies() {
			k := [2]int{a.A, a.B}
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAdjacencyMatchesGridNeighbors cross-checks adjacency extraction
// against the grid's 4-neighbourhood.
func TestAdjacencyMatchesGridNeighbors(t *testing.T) {
	g := geom.NewGrid(4, 5)
	fp := NewMeshSized(g, 1e-3, 2e-3)
	adjSet := map[[2]int]bool{}
	for _, a := range fp.Adjacencies() {
		adjSet[[2]int{a.A, a.B}] = true
	}
	for _, c := range g.Coords() {
		for _, nb := range g.Neighbors(c) {
			i, j := g.Index(c), g.Index(nb)
			if i > j {
				i, j = j, i
			}
			if !adjSet[[2]int{i, j}] {
				t.Fatalf("missing adjacency between %v and %v", c, nb)
			}
		}
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	fp := NewMesh(geom.NewGrid(2, 2))
	fp.Blocks[1].X = 0 // collide with block 0
	if err := fp.Validate(); err == nil {
		t.Fatal("Validate accepted overlapping blocks")
	}
}

func TestValidateCatchesBadCell(t *testing.T) {
	fp := NewMesh(geom.NewGrid(2, 2))
	fp.Blocks[0].Cell = geom.Coord{X: 1, Y: 1}
	if err := fp.Validate(); err == nil {
		t.Fatal("Validate accepted a mis-indexed block")
	}
}

func TestNewMeshSizedPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive block size")
		}
	}()
	NewMeshSized(geom.NewGrid(2, 2), 0, 1)
}

func TestRectangularMesh(t *testing.T) {
	g := geom.NewGrid(3, 7)
	fp := NewMeshSized(g, 2e-3, 1e-3)
	if err := fp.Validate(); err != nil {
		t.Fatalf("rectangular mesh invalid: %v", err)
	}
	if math.Abs(fp.DieW()-6e-3) > 1e-15 || math.Abs(fp.DieH()-7e-3) > 1e-15 {
		t.Fatalf("die %g x %g, want 6e-3 x 7e-3", fp.DieW(), fp.DieH())
	}
	// Horizontal adjacency shares the block height, vertical the width.
	for _, a := range fp.Adjacencies() {
		want := 2e-3
		if a.Horizontal {
			want = 1e-3
		}
		if math.Abs(a.SharedLen-want) > 1e-15 {
			t.Fatalf("adjacency (%d,%d) horizontal=%v shares %g, want %g",
				a.A, a.B, a.Horizontal, a.SharedLen, want)
		}
	}
}
