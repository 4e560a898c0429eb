package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// lockstepMeshes are the meshes the lockstep differentials run on: the
// two paper chip sizes, a larger square one and a non-square one.
var lockstepMeshes = [][2]int{{4, 4}, {5, 5}, {9, 9}, {12, 6}}

// TestLockstepSolveMatchesSingle: every column of a width-2 and width-4
// lockstep solve is bitwise what solveSingle returns for that column
// alone, over 200 random right-hand-side sets per mesh, on both the
// conductance matrix and a backward-Euler iteration matrix.
func TestLockstepSolveMatchesSingle(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	for _, wh := range lockstepMeshes {
		nw := refMesh(t, wh)
		for _, dt := range []float64{0, 5e-6} {
			f, err := FactorBanded(nw.G, nw.Sink(), nw.BandPerm())
			if err != nil {
				t.Fatal(err)
			}
			if dt > 0 {
				tr, err := NewTransient(nw, dt)
				if err != nil {
					t.Fatal(err)
				}
				f = tr.f
			}
			name := fmt.Sprintf("%dx%d dt=%g", wh[0], wh[1], dt)
			for trial := 0; trial < 200; trial++ {
				checkLanes(t, name, f, f.lanes2(), f.solve2, r)
				checkLanes(t, name, f, f.lanes4(), f.solve4, r)
			}
		}
	}
}

// checkLanes fills x with random right-hand sides, solves each column
// alone with solveSingle, runs solve on x and fails on the first bit
// that differs.
func checkLanes[L lane](t *testing.T, name string, f *BandedLU, x []L, solve func([]L), r *rand.Rand) {
	t.Helper()
	for i := range x {
		for c := range len(x[i]) {
			x[i][c] = r.Float64()*10 - 1
		}
	}
	want := make([][]float64, len(x[0]))
	for c := range want {
		want[c] = make([]float64, len(x))
		for i := range x {
			want[c][i] = x[i][c]
		}
		f.solveSingle(want[c])
	}
	solve(x)
	for c := range want {
		for i, v := range want[c] {
			if math.Float64bits(x[i][c]) != math.Float64bits(v) {
				t.Fatalf("%s width %d column %d: row %d = %v, solveSingle %v", name, len(want), c, i, x[i][c], v)
			}
		}
	}
}

// TestStepStatesMatchesStep integrates k = 1..4 independent
// leakage-coupled states for 300 steps through StepStates — widths 1, 2,
// 4 and the padded three — each from its own random start under its own
// power maps, switching maps every 50 steps as a migration orbit does,
// and asserts after every step that each state is bitwise where stepping
// it alone, as StepStates of one state, puts it.
func TestStepStatesMatchesStep(t *testing.T) {
	const steps = 300
	r := rand.New(rand.NewSource(27))
	for _, wh := range lockstepMeshes {
		nw := refMesh(t, wh)
		tr, err := NewTransient(nw, 5e-6)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 4; k++ {
			name := fmt.Sprintf("%dx%d %d states", wh[0], wh[1], k)
			T, pow := make([][]float64, k), make([][]float64, k)
			solo := make([][]float64, k)
			maps := make([][][]float64, k)
			for c := range T {
				T[c], pow[c] = make([]float64, nw.NNodes), make([]float64, nw.NDie)
				for i := range T[c] {
					T[c][i] = 40 + 30*r.Float64()
				}
				solo[c] = slices.Clone(T[c])
				maps[c] = make([][]float64, 3)
				for m := range maps[c] {
					maps[c][m] = make([]float64, nw.NDie)
					for i := range maps[c][m] {
						maps[c][m][i] = 2 * r.Float64()
					}
				}
			}
			leak := func(dst, die []float64) {
				for i, d := range die {
					dst[i] = 0.012 * math.Exp(0.018*(d-40))
				}
			}
			soloPow := make([]float64, nw.NDie)
			for s := 0; s < steps; s++ {
				for c := range T {
					leak(pow[c], T[c][:nw.NDie])
					for i, p := range maps[c][(s/50+c)%3] {
						pow[c][i] += p
					}
					leak(soloPow, solo[c][:nw.NDie])
					for i, p := range maps[c][(s/50+c)%3] {
						soloPow[i] += p
					}
					tr.StepStates([][]float64{solo[c]}, [][]float64{soloPow})
				}
				tr.StepStates(T, pow)
				for c := range T {
					if i := firstBitDiff(T[c], solo[c]); i >= 0 {
						t.Fatalf("%s step %d state %d: node %d = %v, alone %v",
							name, s, c, i, T[c][i], solo[c][i])
					}
				}
			}
		}
	}
}

// TestStepStatesRejectsBadShapes: StepStates panics on an empty or
// five-state set, mismatched state and power counts, and a state of the
// wrong size.
func TestStepStatesRejectsBadShapes(t *testing.T) {
	nw := refMesh(t, [2]int{4, 4})
	tr, err := NewTransient(nw, 5e-6)
	if err != nil {
		t.Fatal(err)
	}
	states := func(k int) [][]float64 {
		v := make([][]float64, k)
		for c := range v {
			v[c] = make([]float64, nw.NNodes)
		}
		return v
	}
	powers := func(k int) [][]float64 {
		v := make([][]float64, k)
		for c := range v {
			v[c] = make([]float64, nw.NDie)
		}
		return v
	}
	short := states(2)
	short[1] = short[1][:3]
	for name, call := range map[string]func(){
		"no states":     func() { tr.StepStates(nil, nil) },
		"five states":   func() { tr.StepStates(states(5), powers(5)) },
		"count differs": func() { tr.StepStates(states(2), powers(1)) },
		"short state":   func() { tr.StepStates(short, powers(2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: StepStates did not panic", name)
				}
			}()
			call()
		}()
	}
}
