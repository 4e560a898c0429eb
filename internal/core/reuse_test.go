package core_test

import (
	"sync"
	"testing"

	"hotnoc/internal/chipcfg"
	"hotnoc/internal/core"
	"hotnoc/internal/noc"
)

// work is the host-side work a simulator's run did: decodes and
// migrations asked for and simulated, and NoC cycles stepped.
type work struct {
	decodes, simulated, migrations, migSimulated, stepped uint64
}

func workOf(sys *core.System) work {
	return work{sys.Engine.Decodes, sys.Engine.SimulatedDecodes,
		sys.Migrator.Migrations, sys.Migrator.SimulatedMigrations, sys.Engine.Net.SteppedCycles()}
}

func (w work) sub(v work) work {
	return work{w.decodes - v.decodes, w.simulated - v.simulated,
		w.migrations - v.migrations, w.migSimulated - v.migSimulated, w.stepped - v.stepped}
}

func (w work) add(v work) work {
	return work{w.decodes + v.decodes, w.simulated + v.simulated,
		w.migrations + v.migrations, w.migSimulated + v.migSimulated, w.stepped + v.stepped}
}

// characterizeFresh characterizes every scheme, in order, on a fresh
// Clone of built, returning the characterizations and the work of each.
func characterizeFresh(t *testing.T, built *chipcfg.Built) ([]*core.Characterization, []work) {
	t.Helper()
	schemes := core.AllSchemes()
	chs, ws := make([]*core.Characterization, len(schemes)), make([]work, len(schemes))
	for i, s := range schemes {
		sys, err := built.System.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if chs[i], err = sys.Characterize(s); err != nil {
			t.Fatal(err)
		}
		ws[i] = workOf(sys)
	}
	return chs, ws
}

// TestBorrowMatchesClone is the differential oracle for simulator reuse:
// at scale 8, characterizing each configuration's five schemes in turn
// on the one simulator Borrow lends and Release takes back, so every run
// but the first starts where another scheme's ended, equals
// characterizing each on a fresh Clone of another build of the
// configuration: characterizations bit for bit, each run's work, and
// the network each run leaves behind. A released simulator's network
// equals a fresh clone's.
func TestBorrowMatchesClone(t *testing.T) {
	for _, spec := range chipcfg.Specs() {
		spec := spec.Scaled(8)
		ref, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		want, wantWork := characterizeFresh(t, ref)
		built, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		var first *core.System
		for i, s := range core.AllSchemes() {
			what := spec.Name + " " + s.Name
			sim, err := built.System.Borrow()
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = sim
			} else if sim != first {
				t.Fatalf("%s: Borrow cloned with a released simulator on the free list", what)
			}
			before := workOf(sim)
			got, err := sim.Characterize(s)
			if err != nil {
				t.Fatal(err)
			}
			assertSameChar(t, what, got, want[i])
			if w := workOf(sim).sub(before); w != wantWork[i] {
				t.Fatalf("%s: reused simulator did %+v, a fresh clone %+v", what, w, wantWork[i])
			}
			fresh, err := ref.System.Clone()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fresh.Characterize(s); err != nil {
				t.Fatal(err)
			}
			assertSameNetwork(t, what, sim.Engine.Net, fresh.Engine.Net)

			built.System.Release(sim)
			if fresh, err = ref.System.Clone(); err != nil {
				t.Fatal(err)
			}
			assertSameNetwork(t, what+" released", sim.Engine.Net, fresh.Engine.Net)
		}
	}
}

// TestBorrowConcurrent: the five schemes of each configuration
// characterized by 2 and 4 goroutines that borrow and release
// simulators of one build equal sequential characterizations on fresh
// clones of another, and do the same work in total: each memo key is
// resolved once however the runs interleave. No more simulators are
// made than runs are in flight. Run it under -race.
func TestBorrowConcurrent(t *testing.T) {
	schemes := core.AllSchemes()
	for _, spec := range chipcfg.Specs() {
		spec := spec.Scaled(8)
		ref, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		want, wantWork := characterizeFresh(t, ref)
		var wantTotal work
		for _, w := range wantWork {
			wantTotal = wantTotal.add(w)
		}
		for _, workers := range []int{2, 4} {
			built, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			got := make([]*core.Characterization, len(schemes))
			ws := make([]work, len(schemes))
			var mu sync.Mutex
			sims := map[*core.System]bool{}
			next := make(chan int)
			var wg sync.WaitGroup
			for range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range next {
						sim, err := built.System.Borrow()
						if err != nil {
							t.Error(err)
							continue
						}
						mu.Lock()
						sims[sim] = true
						mu.Unlock()
						before := workOf(sim)
						if got[i], err = sim.Characterize(schemes[i]); err != nil {
							t.Error(err)
							continue
						}
						ws[i] = workOf(sim).sub(before)
						built.System.Release(sim)
					}
				}()
			}
			for i := range schemes {
				next <- i
			}
			close(next)
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			var total work
			for i, s := range schemes {
				assertSameChar(t, spec.Name+" "+s.Name, got[i], want[i])
				total = total.add(ws[i])
			}
			if total != wantTotal {
				t.Errorf("%s, %d workers: did %+v in total, fresh clones %+v", spec.Name, workers, total, wantTotal)
			}
			if len(sims) > workers {
				t.Errorf("%s, %d workers: %d simulators made", spec.Name, workers, len(sims))
			}
		}
	}
}

// TestReleaseDropsBusySimulator: a simulator released with traffic in
// flight is not reused.
func TestReleaseDropsBusySimulator(t *testing.T) {
	built, err := chipcfg.Specs()[0].Scaled(8).Build()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := built.System.Borrow()
	if err != nil {
		t.Fatal(err)
	}
	net := sim.Engine.Net
	if err := net.Send(&noc.Packet{ID: 1, Src: net.Grid.Coord(0), Dst: net.Grid.Coord(1), NFlits: 2}); err != nil {
		t.Fatal(err)
	}
	built.System.Release(sim)
	again, err := built.System.Borrow()
	if err != nil {
		t.Fatal(err)
	}
	if again == sim {
		t.Fatal("Borrow lent a simulator released with traffic in flight")
	}
}
