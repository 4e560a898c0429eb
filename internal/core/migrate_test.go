package core

import (
	"reflect"
	"testing"

	"hotnoc/internal/geom"
	"hotnoc/internal/noc"
)

func newTestNet(t testing.TB, n int) *noc.Network {
	t.Helper()
	net, err := noc.New(geom.NewGrid(n, n), noc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestMigrationExecutes: every scheme's first migration completes on both
// grids and moves exactly the expected state volume.
func TestMigrationExecutes(t *testing.T) {
	for _, n := range []int{4, 5} {
		g := geom.NewGrid(n, n)
		for _, s := range AllSchemes() {
			net := newTestNet(t, n)
			m := NewMigrator(net)
			m.StateFlits = 16
			perm := geom.FromTransform(g, s.Step(0, g))
			stats, err := m.Execute(perm)
			if err != nil {
				t.Fatalf("%s on %dx%d: %v", s.Name, n, n, err)
			}
			moved := perm.Len() - len(perm.FixedPoints())
			if stats.Transfers != moved {
				t.Fatalf("%s on %dx%d: %d transfers, want %d", s.Name, n, n, stats.Transfers, moved)
			}
			if stats.StateFlitsMoved != int64(moved*16) {
				t.Fatalf("%s: moved %d flits, want %d", s.Name, stats.StateFlitsMoved, moved*16)
			}
			if net.Busy() {
				t.Fatalf("%s: network not empty after migration", s.Name)
			}
			if stats.Phases != len(PlanPhases(g, perm)) {
				t.Fatalf("%s: executed %d phases, planned %d", s.Name, stats.Phases,
					len(PlanPhases(g, perm)))
			}
		}
	}
}

// TestMigrationDeterministicDuration: the same migration costs exactly the
// same cycles every time — the paper's real-time property, enabled by
// congestion-free phasing.
func TestMigrationDeterministicDuration(t *testing.T) {
	g := geom.NewGrid(5, 5)
	perm := geom.FromTransform(g, geom.Rotation(5))
	var want int64
	for run := 0; run < 3; run++ {
		net := newTestNet(t, 5)
		m := NewMigrator(net)
		stats, err := m.Execute(perm)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			want = stats.Cycles
			continue
		}
		if stats.Cycles != want {
			t.Fatalf("run %d took %d cycles, run 0 took %d", run, stats.Cycles, want)
		}
	}
}

// TestMigrationChargesConversionAtSources: every moved PE pays conversion
// energy for its state words; fixed points pay nothing.
func TestMigrationChargesConversionAtSources(t *testing.T) {
	g := geom.NewGrid(5, 5)
	net := newTestNet(t, 5)
	m := NewMigrator(net)
	m.StateFlits = 8
	perm := geom.FromTransform(g, geom.Rotation(5))
	if _, err := m.Execute(perm); err != nil {
		t.Fatal(err)
	}
	center, _ := g.Center()
	for i := 0; i < g.N(); i++ {
		want := uint64(8)
		if i == g.Index(center) {
			want = 0 // rotation fixes the centre
		}
		if net.Act.ConvWords[i] != want {
			t.Fatalf("block %d: %d conversion words, want %d", i, net.Act.ConvWords[i], want)
		}
	}
}

// TestMigrationDrainsWorkloadFirst: pre-existing traffic is delivered
// before state moves, and its deliveries still reach the original handler.
func TestMigrationDrainsWorkloadFirst(t *testing.T) {
	net := newTestNet(t, 4)
	workloadDelivered := 0
	net.Deliver = func(p *noc.Packet) { workloadDelivered++ }
	for i := 0; i < 5; i++ {
		pkt := &noc.Packet{
			ID:  net.NextID(),
			Src: geom.Coord{X: 0, Y: 0}, Dst: geom.Coord{X: 3, Y: 3},
			NFlits: 4,
		}
		if err := net.Send(pkt); err != nil {
			t.Fatal(err)
		}
	}
	g := geom.NewGrid(4, 4)
	m := NewMigrator(net)
	if _, err := m.Execute(geom.FromTransform(g, geom.XMirror(4))); err != nil {
		t.Fatal(err)
	}
	if workloadDelivered != 5 {
		t.Fatalf("%d workload packets delivered, want 5", workloadDelivered)
	}
}

// TestMigrationTimeOrdering: rotation (most phases, longest routes) takes
// at least as long as the translation schemes on the 5x5 chip.
func TestMigrationTimeOrdering(t *testing.T) {
	g := geom.NewGrid(5, 5)
	dur := map[string]int64{}
	for _, s := range AllSchemes() {
		net := newTestNet(t, 5)
		m := NewMigrator(net)
		stats, err := m.Execute(geom.FromTransform(g, s.Step(0, g)))
		if err != nil {
			t.Fatal(err)
		}
		dur[s.Name] = stats.Cycles
	}
	if dur["Rot"] < dur["Right Shift"] || dur["Rot"] < dur["X-Y Shift"] {
		t.Fatalf("rotation migration (%d cycles) not slowest vs shifts (%d, %d)",
			dur["Rot"], dur["Right Shift"], dur["X-Y Shift"])
	}
}

// TestMigratorRejectsBadState: invalid configuration errors out cleanly.
func TestMigratorRejectsBadState(t *testing.T) {
	net := newTestNet(t, 4)
	m := NewMigrator(net)
	m.StateFlits = 0
	g := geom.NewGrid(4, 4)
	if _, err := m.Execute(geom.FromTransform(g, geom.XMirror(4))); err == nil {
		t.Fatal("zero StateFlits accepted")
	}
}

// TestMigrationMemoForgetsFailures: a migration that fails is not cached.
// Its key is released, so a fork migrating by the same permutation steps,
// and fails, again instead of replaying a failed entry.
func TestMigrationMemoForgetsFailures(t *testing.T) {
	g := geom.NewGrid(4, 4)
	cfg := noc.Config{InjectCap: 1} // a state worm never fits
	net, err := noc.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	forkNet, err := noc.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMigrator(net)
	fork := m.Fork(forkNet)
	for _, mig := range []*Migrator{m, fork} {
		if _, err := mig.Execute(geom.FromTransform(g, geom.XMirror(4))); err == nil {
			t.Fatal("a migration overflowing its injection queue succeeded")
		}
		if n := mig.memo.Len(); n != 0 || mig.Migrations != 0 {
			t.Fatalf("a failed migration left %d memo entries and counted %d migrations", n, mig.Migrations)
		}
	}
}

// TestMigrationMemoHit: a fork's migration by a permutation its parent
// has stepped is replayed, leaves the network exactly as stepping does,
// returns the same stats and allocates nothing.
func TestMigrationMemoHit(t *testing.T) {
	g := geom.NewGrid(5, 5)
	perm := geom.FromTransform(g, Rot().Step(0, g))
	m := NewMigrator(newTestNet(t, 5))
	want, err := m.Execute(perm)
	if err != nil {
		t.Fatal(err)
	}
	fork := m.Fork(newTestNet(t, 5))
	got, err := fork.Execute(perm)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || fork.SimulatedMigrations != 0 || fork.Migrations != 1 {
		t.Fatalf("fork: %+v, %d of %d simulated; want %+v and a replay",
			got, fork.SimulatedMigrations, fork.Migrations, want)
	}
	if fork.Net.Stats.ReplayedCycles != want.Cycles {
		t.Fatalf("fork replayed %d cycles, want %d", fork.Net.Stats.ReplayedCycles, want.Cycles)
	}
	ns, fs := m.Net.Stats, fork.Net.Stats
	ns.SkippedCycles, ns.ReplayedCycles = 0, 0
	fs.SkippedCycles, fs.ReplayedCycles = 0, 0
	if m.Net.Cycle != fork.Net.Cycle || ns != fs || !reflect.DeepEqual(m.Net.Act, fork.Net.Act) || m.Net.IDs() != fork.Net.IDs() {
		t.Fatal("a replayed migration left the network unlike a stepped one")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := fork.Execute(perm); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || fork.SimulatedMigrations != 0 {
		t.Errorf("a memo hit allocates %.0f times and %d migrations were simulated, want 0 and 0",
			allocs, fork.SimulatedMigrations)
	}
}

// TestMigrationReplaysFromAnyArbitration: PlanPhases' congestion-free
// phases never contest an output port, so a recorded migration observes
// no arbitration pointer and replays on a network that random traffic
// left in any arbitration state. Every scheme's migrations on both grids.
func TestMigrationReplaysFromAnyArbitration(t *testing.T) {
	for _, n := range []int{4, 5} {
		g := geom.NewGrid(n, n)
		for _, s := range AllSchemes() {
			m := NewMigrator(newTestNet(t, n))
			m.StateFlits = 16
			net := newTestNet(t, n)
			gen, err := noc.NewGenerator(net, noc.UniformRandom, 0.3, 4, int64(n))
			if err != nil {
				t.Fatal(err)
			}
			for range 200 {
				gen.Tick()
				net.Step()
			}
			if _, err := net.Drain(1_000_000); err != nil {
				t.Fatal(err)
			}
			fork := m.Fork(net)
			for k := range s.OrbitLen(g) {
				perm := geom.FromTransform(g, s.Step(k, g))
				if _, err := m.Execute(perm); err != nil {
					t.Fatal(err)
				}
				if _, err := fork.Execute(perm); err != nil {
					t.Fatal(err)
				}
			}
			if fork.SimulatedMigrations != 0 {
				t.Errorf("%s on %dx%d: %d of %d migrations stepped after random traffic, want all replayed",
					s.Name, n, n, fork.SimulatedMigrations, fork.Migrations)
			}
		}
	}
}
