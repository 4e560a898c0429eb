package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json compare mode reads: each
// metric's good direction and, for end-to-end metrics, the share of the
// base median by which it may worsen before it counts as a regression.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles compares two result files and fails on any regression.
func compareFiles(w io.Writer, specPath, basePath, headPath string) error {
	var spec benchSpec
	var base, head resultFile
	for path, v := range map[string]any{specPath: &spec, basePath: &base, headPath: &head} {
		if err := readJSON(path, v); err != nil {
			return err
		}
	}
	if n := compare(w, spec, base, head); n > 0 {
		return fmt.Errorf("%d regressions", n)
	}
	return nil
}

// judge classifies head against base for one metric from their runs. The
// change is the relative difference of the medians. A metric whose
// run-to-run spread on either side exceeds its bound is unresolved —
// unless every head run reads better than every base run, or worse by
// more than the bound — since noise that wide could hide a regression.
func judge(base, head []float64, lowerBetter bool, bound float64) (verdict string, change float64) {
	change = ratio(median(head)-median(base), median(base))
	worse := change
	if !lowerBetter {
		worse = -change
	}
	lo, hi := slices.Min(head), slices.Max(head)
	allBetter, allWorse := hi < slices.Min(base), lo > slices.Max(base)
	if !lowerBetter {
		allBetter, allWorse = lo > slices.Max(base), hi < slices.Min(base)
	}
	switch {
	case allBetter:
		return "better", change
	case allWorse && worse > bound:
		return "worse", change
	case max(spread(base), spread(head)) > bound:
		return "unresolved", change
	case worse > bound:
		return "worse", change
	case -worse > bound:
		return "better", change
	}
	return "unchanged", change
}

// errorRate is failed over attempted jobs across runs.
func errorRate(runs []runRecord) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

// compare prints one row per workload and metric — each side's median and
// quartiles, the change and a verdict — and returns the number of
// regressions: an end-to-end metric worse beyond its bound, a rise in the
// error rate, or a head run with wrong outputs. Per-layer metrics (from
// the traced runs) and the runs' extra metrics are judged with a zero
// bound, for information; they never regress.
func compare(w io.Writer, spec benchSpec, base, head resultFile) int {
	fmt.Fprintf(w, "%-16s %-28s %-34s %-34s %8s %6s %s\n",
		"workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "change", "bound", "verdict")
	side := func(v []float64) string {
		q1, q3 := quartiles(v)
		return fmt.Sprintf("%.5g [%.5g, %.5g]", median(v), q1, q3)
	}
	regressions := 0
	for _, name := range workloadNames(base) {
		b, h := base.Workloads[name], head.Workloads[name]
		if h == nil {
			fmt.Fprintf(w, "%-16s missing from head\n", name)
			continue
		}
		for _, group := range []struct {
			specs      []metricSpec
			base, head []runRecord
			gated      bool
		}{
			{spec.EndToEnd, b.Runs, h.Runs, true},
			{spec.PerLayer, b.Traced, h.Traced, false},
			{extraSpecs(b.Runs), b.Runs, h.Runs, false},
			{extraSpecs(b.Traced), b.Traced, h.Traced, false},
		} {
			for _, m := range group.specs {
				bv, hv := values(group.base, m.Name), values(group.head, m.Name)
				if len(bv) == 0 || len(hv) == 0 {
					continue
				}
				bound, note := m.Bound, ""
				if !group.gated {
					bound, note = 0, " (info)"
				}
				verdict, change := judge(bv, hv, m.Better == "lower", bound)
				if group.gated && verdict == "worse" {
					regressions++
				}
				fmt.Fprintf(w, "%-16s %-28s %-34s %-34s %+7.1f%% %5.0f%% %s%s\n",
					name, m.Name, side(bv), side(hv), 100*change, 100*bound, verdict, note)
			}
		}
		be, he := errorRate(b.Runs), errorRate(h.Runs)
		verdict := "unchanged"
		if he > be {
			verdict = "worse"
			regressions++
		}
		fmt.Fprintf(w, "%-16s %-28s %-34.4g %-34.4g %8s %6s %s\n", name, "error_rate", be, he, "", "+0", verdict)
		for _, r := range h.Runs {
			if !r.Correct {
				fmt.Fprintf(w, "%-16s head run with seed %d has wrong outputs\n", name, r.Seed)
				regressions++
			}
		}
	}
	return regressions
}

// extraSpecs describes the extra metrics of runs, all lower-is-better.
func extraSpecs(runs []runRecord) []metricSpec {
	var specs []metricSpec
	if len(runs) > 0 {
		for _, name := range slices.Sorted(maps.Keys(runs[0].Extra)) {
			specs = append(specs, metricSpec{Name: name, Unit: runs[0].Extra[name].Unit, Better: "lower"})
		}
	}
	return specs
}
