// Command bench is hotnoc's end-to-end and per-layer benchmark. It runs
// three workloads — a cold in-process Figure 1, Figure 1 served warm by
// an in-process hotnocd, and warm reactive points — checks every output
// against golden digests, and reports each metric by name with its unit.
// See README.md for the workloads, the metrics and how to compare runs.
//
// One workload, in this process, reporting the end-to-end metrics (or
// with -trace 1 the per-layer ones) as a JSON object on the last line:
//
//	bench -workload fig1-cold -seed 1 -seconds 10 -trace 0
//
// Every workload, each run in a child process, written to one result file:
//
//	bench -runs 10 -out bench/out
//
// Two result files compared metric by metric:
//
//	bench -compare base.json head.json
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"

	"hotnoc/obs"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	scale    int
	runs     int
	out      string
	golden   string
	update   bool
}

// endToEnd and perLayer name the metrics an untraced and a traced run
// report, in print order. BENCHMARK.json lists the same names.
var (
	endToEnd = []string{"setup_s", "job_p50_ms", "points_per_s", "cpu_ms_per_point",
		"alloc_mb_per_point", "mallocs_per_point", "peak_rss_mb"}
	perLayer = []string{"chipcfg.build_ms", "place.anneals",
		"sim.characterize_ms_p50", "sim.busy_frac", "sim.evaluate_ms_per_point", "sim.decodes", "sim.char_misses",
		"appmap.decode_ms", "appmap.mallocs_per_decode", "appmap.kb_per_decode",
		"noc.cycles_per_decode", "noc.ns_per_cycle", "noc.flits_per_cycle",
		"core.migrate_ms", "core.migrate_ns_per_cycle", "core.clone_ms", "thermal.evaluator_ms",
		"core.evaluate_ms", "core.evaluate_reactive_ms"}
)

// result is the last line a workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process; empty runs every workload, each in a child process")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs (with -runs, the first run's; later runs count up)")
	flag.IntVar(&o.seconds, "seconds", 12, "length of each timed phase in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	flag.IntVar(&o.scale, "scale", 1, "workload divisor: 1 is paper scale, 8 a smoke test")
	flag.IntVar(&o.runs, "runs", 1, "untraced runs per workload when running every workload")
	flag.StringVar(&o.out, "out", "bench/out", "directory for the result and trace files")
	flag.StringVar(&o.golden, "golden", "bench/golden.json", "golden digest file")
	flag.BoolVar(&o.update, "update", false, "record this run's reference-set digests in the golden file instead of checking them")
	compareMode := flag.Bool("compare", false, "compare two result files: -compare base.json head.json")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition holding the metric bounds, for -compare")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	var err error
	switch {
	case *compareMode:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result files")
			break
		}
		err = compareFiles(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1))
	case o.workload != "":
		err = runWorkload(ctx, o)
	default:
		err = runAll(ctx, o)
	}
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runWorkload runs one workload, records it in its run file and prints
// its report, ending with the result line. A run whose outputs are wrong
// prints its result and fails.
func runWorkload(ctx context.Context, o options) error {
	// A run must finish well inside three minutes whatever happens.
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	r, res, err := execute(ctx, o)
	if err != nil {
		return err
	}
	rec, err := json.Marshal(runRecord{Seed: o.seed, result: res, Extra: r.extra})
	if err != nil {
		return err
	}
	if err := writeFile(o.out, runFile(o.workload, o.seed, o.trace), rec); err != nil {
		return err
	}
	report(os.Stdout, r, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: outputs are not correct", o.workload)
	}
	return nil
}

// runFile names the file a run records itself in under the out directory.
func runFile(workload string, seed int64, trace int) string {
	return fmt.Sprintf("run-%s-seed%d-trace%d.json", workload, seed, trace)
}

func writeFile(dir, name string, b []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// execute runs one workload in this process and computes its metrics.
func execute(ctx context.Context, o options) (*run, result, error) {
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == o.workload })
	if i < 0 {
		return nil, result{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	g, err := loadGolden(o.golden, o.update)
	if err != nil {
		return nil, result{}, err
	}
	r := &run{opts: o, golden: g}
	if o.trace == 1 {
		r.tr, r.reg = newTracer(), obs.NewRegistry()
	}
	if err := workloads[i].run(ctx, r); err != nil {
		return nil, result{}, fmt.Errorf("%s: %w", o.workload, err)
	}
	res := result{Correct: len(r.wrong) == 0 && r.failed == 0, Attempted: r.attempted, Failed: r.failed}
	if r.extra == nil {
		r.extra = map[string]metric{}
	}
	if r.tr == nil {
		res.Metrics = r.endToEnd()
		// The tail is reported but not gated: with a few hundred jobs per
		// run on a shared two-core host its run-to-run spread is up to 30%.
		p95, _ := percentile(durationsMS(r.lat), 95)
		r.extra["job_p95_ms"] = metric{p95, "ms"}
		return r, res, nil
	}
	// Against the untraced runs' job_p50_ms, this gives the tracing overhead.
	r.extra["job_p50_ms_traced"] = metric{median(durationsMS(r.lat)), "ms"}
	if res.Metrics, err = r.perLayer(); err != nil {
		return nil, result{}, fmt.Errorf("%s: %w", o.workload, err)
	}
	return r, res, r.writeTrace()
}

// ratio is a/b, or 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (r *run) endToEnd() map[string]metric {
	points := float64(r.points)
	return map[string]metric{
		"setup_s":            {median(durationsMS(r.setups)) / 1000, "s"},
		"job_p50_ms":         {median(durationsMS(r.lat)), "ms"},
		"points_per_s":       {ratio(points, r.timed.Seconds()), "points/s"},
		"cpu_ms_per_point":   {ratio(ms(r.spent.cpu), points), "ms"},
		"alloc_mb_per_point": {ratio(float64(r.spent.alloc)/1e6, points), "MB"},
		"mallocs_per_point":  {ratio(float64(r.spent.mallocs), points), "count"},
		"peak_rss_mb":        {peakRSSMB(), "MB"},
	}
}

func (r *run) perLayer() (map[string]metric, error) {
	m := map[string]metric{
		"chipcfg.build_ms":          {mean(r.tr.durations("chipcfg.build")), "ms"},
		"place.anneals":             {median(r.anneals), "count"},
		"sim.characterize_ms_p50":   {median(r.tr.durations("sim.characterize")), "ms"},
		"sim.busy_frac":             {ratio(r.stageTime.char+r.stageTime.eval, workers*r.timed.Seconds()), "fraction"},
		"sim.evaluate_ms_per_point": {ratio(r.stageTime.eval*1000, float64(r.stageTime.evals)), "ms"},
		"sim.decodes":               {float64(r.stats.Decodes), "count"},
		"sim.char_misses":           {float64(r.stats.CacheMisses), "count"},
	}
	if err := probeLayers(r.tr, r.builts, r.probeSchemes, m); err != nil {
		return nil, err
	}
	return m, nil
}

// writeTrace writes the traced run's spans and per-layer self times to
// <out>/trace-<workload>.json.
func (r *run) writeTrace() error {
	b, err := json.MarshalIndent(map[string]any{
		"workload": r.opts.workload,
		"seed":     r.opts.seed,
		"scale":    r.opts.scale,
		"spans":    r.tr.spans,
		"self_ms":  selfTimes(r.tr.spans),
	}, "", " ")
	if err != nil {
		return err
	}
	return writeFile(r.opts.out, "trace-"+r.opts.workload+".json", b)
}

// report prints a run's notes and metrics, one "name value unit" line
// each; comment lines start with '#'.
func report(w io.Writer, r *run, res result) {
	o := r.opts
	fmt.Fprintf(w, "# %s seed %d scale %d seconds %d trace %d\n", o.workload, o.seed, o.scale, o.seconds, o.trace)
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, s := range r.wrong {
		fmt.Fprintf(w, "# INCORRECT: %s\n", s)
	}
	_, beyond := percentile(durationsMS(r.lat), 95)
	fmt.Fprintf(w, "# %d set-ups; %d jobs, %d failed, %d points; %d job samples beyond p95\n",
		len(r.setups), r.attempted, r.failed, r.points, beyond)
	names := endToEnd
	if r.tr != nil {
		names = perLayer
	}
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, name := range slices.Sorted(maps.Keys(r.extra)) {
		m := r.extra[name]
		fmt.Fprintf(w, "%-28s %14.6g %s  (not in BENCHMARK.json)\n", name, m.Value, m.Unit)
	}
	if r.tr != nil {
		self := selfTimes(r.tr.spans)
		fmt.Fprintf(w, "# self time by layer (ms):")
		for _, l := range slices.Sorted(maps.Keys(self)) {
			fmt.Fprintf(w, " %s %.1f", l, self[l])
		}
		fmt.Fprintln(w)
	}
}

// resultFile is what a run over every workload writes: each run's result
// line by workload, plus the machine it ran on.
type resultFile struct {
	Meta      resultMeta               `json:"meta"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

type resultMeta struct {
	NProc   int    `json:"nproc"`
	Go      string `json:"go"`
	GOARCH  string `json:"goarch"`
	Scale   int    `json:"scale"`
	Seconds int    `json:"seconds"`
}

type workloadRuns struct {
	Runs   []runRecord `json:"runs"`
	Traced []runRecord `json:"traced,omitempty"`
	// Summary gives every metric's median and quartiles over the runs,
	// and trace_overhead_pct: the traced run's job_p50_ms_traced against
	// the untraced runs' median job_p50_ms.
	Summary map[string]stat `json:"summary"`
}

// stat summarizes one metric over a workload's runs.
type stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
}

// runRecord is one run as its run file holds it: the result line plus the
// metrics BENCHMARK.json does not list (the job tail, and layers only one
// workload has).
type runRecord struct {
	Seed int64 `json:"seed"`
	result
	Extra map[string]metric `json:"extra,omitempty"`
}

// runAll runs every workload -runs times untraced, and with -trace 1 once
// more traced, each run in a child process of this binary; it writes the
// result file and prints a summary. A failing run is recorded as failed
// and the remaining runs go on.
func runAll(ctx context.Context, o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{
		Meta: resultMeta{NProc: runtime.NumCPU(), Go: runtime.Version(), GOARCH: runtime.GOARCH,
			Scale: o.scale, Seconds: o.seconds},
		Workloads: map[string]*workloadRuns{},
	}
	var failures int
	for _, w := range workloads {
		wr := &workloadRuns{}
		file.Workloads[w.name] = wr
		for i := range o.runs + o.trace {
			traced := i == o.runs
			seed, trace := o.seed+int64(i), 0
			if traced {
				seed, trace = o.seed, 1
			}
			rec, err := child(ctx, exe, o, w.name, seed, trace)
			if err != nil {
				failures++
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, seed, err)
				if ctx.Err() != nil {
					return ctx.Err()
				}
			}
			if rec == nil {
				continue
			}
			if traced {
				wr.Traced = append(wr.Traced, *rec)
			} else {
				wr.Runs = append(wr.Runs, *rec)
			}
		}
		wr.Summary = summary(wr)
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := writeFile(o.out, "result.json", b); err != nil {
		return err
	}
	summarize(os.Stdout, file)
	fmt.Printf("# wrote %s\n", filepath.Join(o.out, "result.json"))
	if failures > 0 {
		return fmt.Errorf("%d runs failed", failures)
	}
	return nil
}

// child runs one workload in a child process, which prints its report,
// and returns the run it recorded. A run that recorded a result but
// exited non-zero (wrong outputs) returns both.
func child(ctx context.Context, exe string, o options, workload string, seed int64, trace int) (*runRecord, error) {
	path := filepath.Join(o.out, runFile(workload, seed, trace))
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(trace), "-scale", strconv.Itoa(o.scale),
		"-out", o.out, "-golden", o.golden)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	var rec runRecord
	if err := readJSON(path, &rec); err != nil {
		return nil, cmp.Or(runErr, err)
	}
	return &rec, runErr
}

// summary computes a workload's summary from its runs.
func summary(wr *workloadRuns) map[string]stat {
	sum := map[string]stat{}
	for _, runs := range [][]runRecord{wr.Runs, wr.Traced} {
		if len(runs) == 0 {
			continue
		}
		for _, name := range runs[0].names() {
			v := values(runs, name)
			m, _ := runs[0].metric(name)
			q1, q3 := quartiles(v)
			sum[name] = stat{Unit: m.Unit, Median: median(v), Q1: q1, Q3: q3, Spread: spread(v)}
		}
	}
	if len(wr.Traced) > 0 && len(wr.Runs) > 0 {
		untraced := median(values(wr.Runs, "job_p50_ms"))
		traced, _ := wr.Traced[0].metric("job_p50_ms_traced")
		pct := 100 * ratio(traced.Value-untraced, untraced)
		sum["trace_overhead_pct"] = stat{Unit: "%", Median: pct, Q1: pct, Q3: pct}
	}
	return sum
}

// metric looks a metric up among the listed and the extra ones.
func (r runRecord) metric(name string) (metric, bool) {
	if m, ok := r.Metrics[name]; ok {
		return m, true
	}
	m, ok := r.Extra[name]
	return m, ok
}

// names lists a run's metrics, listed and extra, in sorted order.
func (r runRecord) names() []string {
	names := append(slices.Collect(maps.Keys(r.Metrics)), slices.Collect(maps.Keys(r.Extra))...)
	slices.Sort(names)
	return names
}

// values collects one metric across runs.
func values(runs []runRecord, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.metric(name); ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// summarize prints each workload's summary: every metric's median
// [q1, q3] and spread over the runs.
func summarize(w io.Writer, file resultFile) {
	for _, name := range workloadNames(file) {
		wr := file.Workloads[name]
		fmt.Fprintf(w, "# %s: %d runs, %d traced\n", name, len(wr.Runs), len(wr.Traced))
		for _, m := range slices.Sorted(maps.Keys(wr.Summary)) {
			st := wr.Summary[m]
			fmt.Fprintf(w, "%-16s %-28s %14.6g %-11s [%.6g, %.6g] spread %.1f%%\n",
				name, m, st.Median, st.Unit, st.Q1, st.Q3, 100*st.Spread)
		}
	}
}

func workloadNames(file resultFile) []string {
	var names []string
	for _, w := range workloads {
		if _, ok := file.Workloads[w.name]; ok {
			names = append(names, w.name)
		}
	}
	return names
}
