package thermal

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// refRunCycle freezes RunCycle as it stood before cycle sets: one
// schedule integrated on one state stepped alone through StepStates, entry
// by entry, through the convergence loop and one recorded repetition. It
// exists only as a differential oracle: never edit it to make a test pass.
func refRunCycle(t *testing.T, nw *Network, entries []ScheduleEntry, opts CycleOptions) CycleResult {
	t.Helper()
	opts.setDefaults()
	ss, err := NewSteadySolver(nw)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTransient(nw, opts.Dt)
	if err != nil {
		t.Fatal(err)
	}
	cycleTime := 0.0
	for _, e := range entries {
		cycleTime += e.Duration
	}
	avg := make([]float64, nw.NDie)
	for _, e := range entries {
		w := e.Duration / cycleTime
		for i, p := range e.Power {
			avg[i] += float64(w * p) // unfused on every GOARCH, as RunCycle
		}
	}
	withLeak := append([]float64(nil), avg...)
	leak := make([]float64, nw.NDie)
	state, next := make([]float64, nw.NNodes), make([]float64, nw.NNodes)
	ss.SolveFullInto(state, withLeak)
	if opts.Leak != nil {
		for it := 0; it < 50; it++ {
			opts.Leak(leak, state[:nw.NDie])
			copy(withLeak, avg)
			for i, l := range leak {
				withLeak[i] += l
			}
			ss.SolveFullInto(next, withLeak)
			done := vecMaxAbsDiff(next, state) < opts.TolC/10
			state, next = next, state
			if done {
				break
			}
		}
	}
	T := state
	power := make([]float64, nw.NDie)
	Ts, Ps := [][]float64{T}, [][]float64{power}
	runEntry := func(e ScheduleEntry, record *CycleResult, meanAcc *float64, samples *int) {
		steps := int(math.Round(e.Duration / opts.Dt))
		if steps < 1 {
			steps = 1
		}
		for s := 0; s < steps; s++ {
			copy(power, e.Power)
			if opts.Leak != nil {
				opts.Leak(leak, T[:nw.NDie])
				for i, l := range leak {
					power[i] += l
				}
			}
			tr.StepStates(Ts, Ps)
			if record != nil {
				for i := 0; i < nw.NDie; i++ {
					t := T[i]
					if t > record.MaxPerBlock[i] {
						record.MaxPerBlock[i] = t
					}
					*meanAcc += t
				}
				*samples += nw.NDie
			}
		}
	}
	prev := slices.Clone(T)
	reps := 0
	for ; reps < opts.MaxReps; reps++ {
		for _, e := range entries {
			runEntry(e, nil, nil, nil)
		}
		if vecMaxAbsDiff(T, prev) < opts.TolC {
			reps++
			break
		}
		copy(prev, T)
	}
	res := CycleResult{MaxPerBlock: make([]float64, nw.NDie), Repetitions: reps, CycleTime: cycleTime}
	for i := range res.MaxPerBlock {
		res.MaxPerBlock[i] = -math.MaxFloat64
	}
	meanAcc, samples := 0.0, 0
	for _, e := range entries {
		runEntry(e, &res, &meanAcc, &samples)
	}
	res.PeakC, res.PeakBlock = Peak(res.MaxPerBlock)
	res.MeanC = meanAcc / float64(samples)
	return res
}

// cycleResultDiff describes the first field in which got and want differ
// bitwise, or returns "".
func cycleResultDiff(got, want CycleResult) string {
	switch {
	case math.Float64bits(got.PeakC) != math.Float64bits(want.PeakC):
		return fmt.Sprintf("PeakC %v, want %v", got.PeakC, want.PeakC)
	case got.PeakBlock != want.PeakBlock:
		return fmt.Sprintf("PeakBlock %d, want %d", got.PeakBlock, want.PeakBlock)
	case math.Float64bits(got.MeanC) != math.Float64bits(want.MeanC):
		return fmt.Sprintf("MeanC %v, want %v", got.MeanC, want.MeanC)
	case got.Repetitions != want.Repetitions:
		return fmt.Sprintf("Repetitions %d, want %d", got.Repetitions, want.Repetitions)
	case math.Float64bits(got.CycleTime) != math.Float64bits(want.CycleTime):
		return fmt.Sprintf("CycleTime %v, want %v", got.CycleTime, want.CycleTime)
	case len(got.MaxPerBlock) != len(want.MaxPerBlock):
		return fmt.Sprintf("%d MaxPerBlock entries, want %d", len(got.MaxPerBlock), len(want.MaxPerBlock))
	}
	if i := firstBitDiff(got.MaxPerBlock, want.MaxPerBlock); i >= 0 {
		return fmt.Sprintf("MaxPerBlock[%d] %v, want %v", i, got.MaxPerBlock[i], want.MaxPerBlock[i])
	}
	return ""
}

// randomSchedule draws a schedule of 1 to 25 entries whose power level,
// hot-spot contrast and entry lengths (1 to 40 steps of dt) vary from
// schedule to schedule, so the set's schedules differ in length and
// converge after different numbers of repetitions.
func randomSchedule(r *rand.Rand, nDie int, dt float64) []ScheduleEntry {
	entries := make([]ScheduleEntry, 1+r.Intn(25))
	level, hot, long := 0.2+r.Float64(), 4*r.Float64(), 1+r.Intn(40)
	for k := range entries {
		p := make([]float64, nDie)
		for i := range p {
			p[i] = level * r.Float64()
		}
		p[r.Intn(nDie)] += hot
		entries[k] = ScheduleEntry{Power: p, Duration: dt * (float64(1+r.Intn(long)) + 0.4*r.Float64())}
	}
	return entries
}

// TestCycleSetMatchesRunCycle: every result of a cycle set of 1 to 9
// schedules is bitwise the lone RunCycle of its schedule and the frozen
// pre-set cycle loop, in every field, with and without leakage coupling,
// and with a repetition cap that stops some schedules before they
// converge. Sets of five or more schedules refill lanes as schedules
// finish.
func TestCycleSetMatchesRunCycle(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	leak := func(dst, die []float64) {
		for i, d := range die {
			dst[i] = 0.012 * math.Exp(0.018*(d-40))
		}
	}
	for _, wh := range [][2]int{{4, 4}, {5, 5}, {6, 3}} {
		nw := refMesh(t, wh)
		ev, err := NewEvaluator(nw)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 12; trial++ {
			opts := CycleOptions{Dt: 5e-6, TolC: []float64{5e-3, 1e-3, 1e-4}[trial%3]}
			if trial%5 != 4 {
				opts.Leak = leak
			}
			if trial%4 == 3 {
				opts.MaxReps = 2 + r.Intn(4)
			}
			scheds := make([][]ScheduleEntry, 1+trial%9)
			for k := range scheds {
				scheds[k] = randomSchedule(r, nw.NDie, opts.Dt)
			}
			got := make([]CycleResult, len(scheds))
			if err := ev.RunCycleSet(scheds, opts, got); err != nil {
				t.Fatal(err)
			}
			for k, entries := range scheds {
				name := fmt.Sprintf("%dx%d trial %d schedule %d of %d", wh[0], wh[1], trial, k, len(scheds))
				lone, err := ev.RunCycle(entries, opts)
				if err != nil {
					t.Fatal(err)
				}
				if d := cycleResultDiff(got[k], lone); d != "" {
					t.Fatalf("%s: set vs RunCycle: %s", name, d)
				}
				if d := cycleResultDiff(lone, refRunCycle(t, nw, entries, opts)); d != "" {
					t.Fatalf("%s: RunCycle vs frozen loop: %s", name, d)
				}
			}
		}
	}
}

// TestCycleSetErrorNamesSchedule: a schedule that fails validation fails
// the set with a *CycleSetError naming it, while RunCycle reports the
// same failure without an index.
func TestCycleSetErrorNamesSchedule(t *testing.T) {
	nw := refMesh(t, [2]int{4, 4})
	ev, err := NewEvaluator(nw)
	if err != nil {
		t.Fatal(err)
	}
	good := []ScheduleEntry{{Power: make([]float64, nw.NDie), Duration: 1e-4}}
	bad := []ScheduleEntry{{Power: make([]float64, nw.NDie), Duration: 0}}
	err = ev.RunCycleSet([][]ScheduleEntry{good, good, bad}, CycleOptions{}, make([]CycleResult, 3))
	var se *CycleSetError
	if !errors.As(err, &se) || se.Schedule != 2 || !strings.Contains(err.Error(), "non-positive duration") {
		t.Fatalf("set error %v, want schedule 2's non-positive duration", err)
	}
	if _, err := ev.RunCycle(bad, CycleOptions{}); err == nil || errors.As(err, &se) {
		t.Fatalf("lone error %v, want an unindexed failure", err)
	}
}

// TestSteps: a duration rounds to the nearest step, at least one, and a
// count that does not fit an int is an error rather than a wrapped count.
func TestSteps(t *testing.T) {
	for _, tc := range []struct {
		duration, dt float64
		want         int
	}{
		{100e-6, 5e-6, 20},
		{102.4e-6, 5e-6, 20},
		{102.6e-6, 5e-6, 21},
		{1e-9, 5e-6, 1},
		{1 << 40, 1, 1 << 40},
	} {
		if got, err := Steps(tc.duration, tc.dt); err != nil || got != tc.want {
			t.Errorf("Steps(%g, %g) = %d, %v, want %d", tc.duration, tc.dt, got, err, tc.want)
		}
	}
	for _, tc := range [][2]float64{{1e-4, 1e-30}, {1e-4, 1e-100}, {1 << 63, 1}, {math.MaxFloat64, 5e-6}, {1, 0}, {math.NaN(), 1}} {
		if got, err := Steps(tc[0], tc[1]); err == nil {
			t.Errorf("Steps(%g, %g) = %d, want an error", tc[0], tc[1], got)
		}
	}
}

// TestCycleSetRejectsOverflowingStepCount: an entry whose step count does
// not fit an int fails its schedule before any work starts.
func TestCycleSetRejectsOverflowingStepCount(t *testing.T) {
	nw := refMesh(t, [2]int{4, 4})
	ev, err := NewEvaluator(nw)
	if err != nil {
		t.Fatal(err)
	}
	good := []ScheduleEntry{{Power: make([]float64, nw.NDie), Duration: 1e-4}}
	long := []ScheduleEntry{good[0], {Power: make([]float64, nw.NDie), Duration: 1e15}}
	err = ev.RunCycleSet([][]ScheduleEntry{good, long}, CycleOptions{}, make([]CycleResult, 2))
	var se *CycleSetError
	if !errors.As(err, &se) || se.Schedule != 1 || !strings.Contains(err.Error(), "entry 1") ||
		!strings.Contains(err.Error(), "more steps than an int holds") {
		t.Fatalf("set error %v, want schedule 1's entry 1 step count", err)
	}
}
