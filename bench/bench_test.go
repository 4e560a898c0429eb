package main

import (
	"context"
	"io"
	"math"
	"slices"
	"testing"

	"hotnoc"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(v, n=4) (the default "exclusive" method).
	for _, tc := range []struct {
		v           []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{2, 1}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q3 := quartiles(tc.v)
		if m := median(tc.v); m != tc.med || q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("%v: median %g quartiles %g %g, want %g %g %g", tc.v, m, q1, q3, tc.med, tc.q1, tc.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != (8.25-2.75)/5.5 {
		t.Errorf("spread %g", s)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // unsorted input
		}
		return v
	}
	for _, tc := range []struct {
		n          int
		p          float64
		want       float64
		wantBeyond int
	}{
		{200, 95, 190, 10},
		{100, 95, 95, 5},
		{20, 50, 10, 10},
		{1, 95, 1, 0},
	} {
		got, beyond := percentile(seq(tc.n), tc.p)
		if got != tc.want || beyond != tc.wantBeyond {
			t.Errorf("p%g of 1..%d = %g with %d beyond, want %g with %d", tc.p, tc.n, got, beyond, tc.want, tc.wantBeyond)
		}
	}
}

func TestDigestIsCanonical(t *testing.T) {
	var es []entry
	for _, c := range []string{"B", "A"} {
		for _, s := range hotnoc.Schemes() {
			es = append(es, entry{Config: c, Scheme: s.Name, Blocks: 1, Result: &hotnoc.RunResult{ReductionC: float64(len(es)) / 3}})
		}
	}
	for _, tr := range []float64{85, 82} {
		es = append(es, entry{Config: "A", Scheme: "Rot", TriggerC: tr, Reactive: &hotnoc.ReactiveResult{PeakC: tr}})
	}
	want, err := digest(es)
	if err != nil {
		t.Fatal(err)
	}
	shuffledEntries := slices.Clone(es)
	newRand(3, 0).Shuffle(len(shuffledEntries), func(i, j int) {
		shuffledEntries[i], shuffledEntries[j] = shuffledEntries[j], shuffledEntries[i]
	})
	if got, _ := digest(shuffledEntries); got != want {
		t.Errorf("digest depends on entry order")
	}

	changed := slices.Clone(es)
	r := *changed[3].Result
	r.ReductionC = math.Nextafter(r.ReductionC, 10)
	changed[3].Result = &r
	if got, _ := digest(changed); got == want {
		t.Errorf("digest misses a one-ulp change")
	}

	bad := slices.Clone(es)
	bad[0].Result = &hotnoc.RunResult{ReductionC: math.NaN()}
	if _, err := digest(bad); err == nil {
		t.Errorf("digest of a NaN result succeeded")
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	grid := hotnoc.SweepGrid(fig1Configs, hotnoc.Schemes(), nil)
	keys := func(pts []hotnoc.SweepPoint) []string {
		var k []string
		for _, p := range pts {
			k = append(k, pointKey(p))
		}
		return k
	}
	a := keys(shuffled(grid, newRand(7, 1)))
	if b := keys(shuffled(grid, newRand(7, 1))); !slices.Equal(a, b) {
		t.Errorf("same seed and stream gave different orders")
	}
	if b := keys(shuffled(grid, newRand(8, 1))); slices.Equal(a, b) {
		t.Errorf("another seed gave the same order")
	}
	if b := keys(shuffled(grid, newRand(7, 2))); slices.Equal(a, b) {
		t.Errorf("another stream gave the same order")
	}
	if b := slices.Sorted(slices.Values(a)); !slices.Equal(b, slices.Sorted(slices.Values(keys(grid)))) {
		t.Errorf("shuffled order is not a permutation of the grid")
	}

	draws := func(seed int64) []int {
		rng := newRand(seed, 1)
		var d []int
		for range 16 {
			d = append(d, rng.IntN(len(reactiveTriggers)))
		}
		return d
	}
	if !slices.Equal(draws(5), draws(5)) || slices.Equal(draws(5), draws(6)) {
		t.Errorf("trigger draws do not follow the seed")
	}
}

func TestJudge(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 100.5, 99.5}
	scale := func(v []float64, f float64) []float64 {
		out := slices.Clone(v)
		for i := range out {
			out[i] *= f
		}
		return out
	}
	for _, tc := range []struct {
		name        string
		base, head  []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"same", tight, tight, true, 0.1, "unchanged"},
		{"slower within bound", tight, scale(tight, 1.05), true, 0.1, "unchanged"},
		{"slower beyond bound", tight, scale(tight, 1.2), true, 0.1, "worse"},
		{"faster beyond bound", tight, scale(tight, 0.8), true, 0.1, "better"},
		{"throughput drop", tight, scale(tight, 0.8), false, 0.1, "worse"},
		{"throughput gain", tight, scale(tight, 1.2), false, 0.1, "better"},
		{"noise wider than bound", []float64{70, 100, 130, 85, 115}, []float64{75, 105, 135, 90, 120}, true, 0.1, "unresolved"},
		{"noisy but every run better", []float64{100, 120, 140}, []float64{60, 70, 80}, true, 0.1, "better"},
		{"overlapping within bound", []float64{100, 102, 98, 101}, []float64{101, 103, 99, 102}, true, 0.1, "unchanged"},
		{"exact count unchanged", []float64{121}, []float64{121}, true, 0, "unchanged"},
		{"exact count changed", []float64{121}, []float64{122}, true, 0, "worse"},
	} {
		if got, _ := judge(tc.base, tc.head, tc.lowerBetter, tc.bound); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareCountsRegressions(t *testing.T) {
	spec := benchSpec{
		EndToEnd: []metricSpec{{Name: "job_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}},
		PerLayer: []metricSpec{{Name: "noc.ns_per_cycle", Unit: "ns", Better: "lower"}},
	}
	file := func(p50 float64, failed int, layer float64) resultFile {
		wr := &workloadRuns{Traced: []runRecord{{result: result{Correct: true, Attempted: 1,
			Metrics: map[string]metric{"noc.ns_per_cycle": {layer, "ns"}}}}}}
		for i := range 4 {
			wr.Runs = append(wr.Runs, runRecord{Seed: int64(i), result: result{
				Correct: failed == 0, Attempted: 10, Failed: failed,
				Metrics: map[string]metric{"job_p50_ms": {p50 + float64(i)/10, "ms"}}}})
		}
		return resultFile{Workloads: map[string]*workloadRuns{"fig1-cold": wr}}
	}
	for _, tc := range []struct {
		name string
		head resultFile
		want int
	}{
		{"same", file(100, 0, 50), 0},
		{"layer slower only", file(100, 0, 90), 0},
		{"end to end slower", file(130, 0, 50), 1},
		// The error-rate rise, plus each of the four head runs with wrong outputs.
		{"failures appear", file(100, 1, 50), 5},
	} {
		if got := compare(io.Discard, spec, file(100, 0, 50), tc.head); got != tc.want {
			t.Errorf("%s: %d regressions, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSpecListsTheHarnessMetrics(t *testing.T) {
	var spec benchSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []string
	emitted := (&run{}).endToEnd()
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
		if got := emitted[m.Name].Unit; got != m.Unit {
			t.Errorf("%s: harness reports %q, BENCHMARK.json says %q", m.Name, got, m.Unit)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end-to-end metrics: BENCHMARK.json %v, harness %v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("per-layer metrics: BENCHMARK.json %v, harness %v", layer, perLayer)
	}
}

// TestSmoke runs every workload untraced and traced at scale 8 with 1 s
// loops, checking the smoke-scale goldens and that every metric of
// BENCHMARK.json is reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for trace, names := range [][]string{endToEnd, perLayer} {
			o := options{workload: w.name, seed: 1, seconds: 1, trace: trace, scale: 8,
				golden: "golden.json", out: t.TempDir()}
			r, res, err := execute(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace %d: correct %v, %d attempted, %d failed: %v",
					w.name, trace, res.Correct, res.Attempted, res.Failed, r.wrong)
			}
			for _, name := range names {
				if m, ok := res.Metrics[name]; !ok || math.IsNaN(m.Value) || m.Unit == "" {
					t.Errorf("%s trace %d: metric %s missing", w.name, trace, name)
				}
			}
		}
	}
}
