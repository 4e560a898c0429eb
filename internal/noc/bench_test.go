package noc

import (
	"testing"

	"hotnoc/internal/geom"
)

// TestStepAllocationFree pins the cycle kernel at zero allocations on a
// loaded network: the static noalloc annotations on Step say the same,
// this checks the compiled code.
func TestStepAllocationFree(t *testing.T) {
	n, err := New(geom.NewGrid(5, 5), Config{})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(n, UniformRandom, 0.5, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 200; c++ {
		gen.Tick()
		n.Step()
	}
	if got := testing.AllocsPerRun(100, n.Step); got != 0 {
		t.Fatalf("Step allocates %.1f times per cycle, want 0", got)
	}
	if !n.Busy() {
		t.Fatal("network drained during the measurement; load it harder")
	}
}

// BenchmarkStepIdle measures the cycle kernel with an empty network — the
// floor cost a stepped cycle pays (Run fast-forwards idle spans instead).
func BenchmarkStepIdle(b *testing.B) {
	n, err := New(geom.NewGrid(5, 5), Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
}

// BenchmarkStepLoaded measures the kernel under sustained uniform-random
// load at 30 % injection, the decoder's operating region.
func BenchmarkStepLoaded(b *testing.B) {
	n, err := New(geom.NewGrid(5, 5), Config{})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := NewGenerator(n, UniformRandom, 0.3, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the network into steady load.
	for c := 0; c < 500; c++ {
		gen.Tick()
		n.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Tick()
		n.Step()
	}
}

// BenchmarkSingleWormTraversal measures end-to-end delivery of one
// corner-to-corner worm on an otherwise idle mesh.
func BenchmarkSingleWormTraversal(b *testing.B) {
	n, err := New(geom.NewGrid(5, 5), Config{})
	if err != nil {
		b.Fatal(err)
	}
	src := geom.Coord{X: 0, Y: 0}
	dst := geom.Coord{X: 4, Y: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := &Packet{ID: n.NextID(), Src: src, Dst: dst, NFlits: 8}
		if err := n.Send(pkt); err != nil {
			b.Fatal(err)
		}
		if _, err := n.Drain(10000); err != nil {
			b.Fatal(err)
		}
	}
}
