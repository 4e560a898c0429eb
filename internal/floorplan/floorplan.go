// Package floorplan models the physical layout of the NoC test chips. The
// paper's chips were placed and routed with a 160 nm standard-cell library,
// each functional unit (PE plus its router) occupying 4.36 mm²; we reproduce
// that geometry as a regular mesh of square blocks. The floorplan is the
// geometric input to the thermal RC network: block areas set vertical
// resistance and capacitance, shared edge lengths set lateral resistances.
package floorplan

import (
	"fmt"
	"math"

	"hotnoc/internal/geom"
)

// UnitAreaM2 is the paper's per-functional-unit area (4.36 mm²) in m².
const UnitAreaM2 = 4.36e-6

// UnitSideM is the side length of a square block with UnitAreaM2.
var UnitSideM = math.Sqrt(UnitAreaM2)

// Block is a rectangular region of the die hosting one functional unit
// (a PE with its router). Positions and sizes are in metres with the
// origin at the die's south-west corner.
type Block struct {
	// Name identifies the block in reports, e.g. "pe_2_3".
	Name string
	// Cell is the block's grid coordinate.
	Cell geom.Coord
	// X, Y locate the block's south-west corner on the die.
	X, Y float64
	// W, H are the block dimensions.
	W, H float64
}

// Area returns the block area in m².
func (b Block) Area() float64 { return b.W * b.H }

// Floorplan is a complete die layout: a grid of blocks in row-major order.
type Floorplan struct {
	Grid   geom.Grid
	Blocks []Block
}

// NewMesh builds the regular mesh floorplan of a g-sized chip with square
// blocks of the paper's unit area.
func NewMesh(g geom.Grid) *Floorplan {
	return NewMeshSized(g, UnitSideM, UnitSideM)
}

// NewMeshSized builds a mesh floorplan with explicit block dimensions,
// allowing sensitivity studies on the unit aspect ratio.
// It panics on non-positive dimensions.
func NewMeshSized(g geom.Grid, blockW, blockH float64) *Floorplan {
	if blockW <= 0 || blockH <= 0 {
		panic(fmt.Sprintf("floorplan: invalid block size %g x %g", blockW, blockH))
	}
	fp := &Floorplan{Grid: g, Blocks: make([]Block, 0, g.N())}
	for _, c := range g.Coords() {
		fp.Blocks = append(fp.Blocks, Block{
			Name: fmt.Sprintf("pe_%d_%d", c.X, c.Y),
			Cell: c,
			X:    float64(c.X) * blockW,
			Y:    float64(c.Y) * blockH,
			W:    blockW,
			H:    blockH,
		})
	}
	return fp
}

// N returns the number of blocks.
func (f *Floorplan) N() int { return len(f.Blocks) }

// DieW and DieH return the die dimensions in metres.
func (f *Floorplan) DieW() float64 { return float64(f.Grid.W) * f.Blocks[0].W }
func (f *Floorplan) DieH() float64 { return float64(f.Grid.H) * f.Blocks[0].H }

// DieArea returns the total die area in m².
func (f *Floorplan) DieArea() float64 {
	a := 0.0
	for _, b := range f.Blocks {
		a += b.Area()
	}
	return a
}

// Adjacency describes one shared edge between two blocks; SharedLen is the
// length of the common boundary through which lateral heat flows.
type Adjacency struct {
	A, B      int // row-major block indices, A < B
	SharedLen float64
	// Horizontal is true when the boundary is vertical (heat flows in X).
	Horizontal bool
}

// Adjacencies returns every pair of edge-sharing blocks, each pair once,
// ordered by (A, B). The thermal network places one lateral resistance per
// adjacency.
func (f *Floorplan) Adjacencies() []Adjacency {
	var out []Adjacency
	for _, c := range f.Grid.Coords() {
		i := f.Grid.Index(c)
		// Only east and north neighbours: ensures each pair appears once.
		if e := (geom.Coord{X: c.X + 1, Y: c.Y}); f.Grid.Contains(e) {
			out = append(out, Adjacency{
				A: i, B: f.Grid.Index(e),
				SharedLen:  f.Blocks[i].H,
				Horizontal: true,
			})
		}
		if n := (geom.Coord{X: c.X, Y: c.Y + 1}); f.Grid.Contains(n) {
			out = append(out, Adjacency{
				A: i, B: f.Grid.Index(n),
				SharedLen:  f.Blocks[i].W,
				Horizontal: false,
			})
		}
	}
	return out
}

// Validate checks geometric consistency: positive sizes, blocks on their
// grid positions, no overlaps, and full tiling of the die.
func (f *Floorplan) Validate() error {
	if f.N() != f.Grid.N() {
		return fmt.Errorf("floorplan: %d blocks for %d grid cells", f.N(), f.Grid.N())
	}
	for i, b := range f.Blocks {
		if b.W <= 0 || b.H <= 0 {
			return fmt.Errorf("floorplan: block %s has non-positive size", b.Name)
		}
		if f.Grid.Index(b.Cell) != i {
			return fmt.Errorf("floorplan: block %s stored at index %d, want %d",
				b.Name, i, f.Grid.Index(b.Cell))
		}
	}
	for i := 0; i < f.N(); i++ {
		for j := i + 1; j < f.N(); j++ {
			if overlaps(f.Blocks[i], f.Blocks[j]) {
				return fmt.Errorf("floorplan: blocks %s and %s overlap",
					f.Blocks[i].Name, f.Blocks[j].Name)
			}
		}
	}
	if got, want := f.DieArea(), f.DieW()*f.DieH(); math.Abs(got-want) > 1e-12 {
		return fmt.Errorf("floorplan: blocks cover %g m² of a %g m² die", got, want)
	}
	return nil
}

func overlaps(a, b Block) bool {
	const eps = 1e-15
	return a.X+a.W > b.X+eps && b.X+b.W > a.X+eps &&
		a.Y+a.H > b.Y+eps && b.Y+b.H > a.Y+eps
}
