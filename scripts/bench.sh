#!/usr/bin/env sh
# bench.sh records the benchmark trajectory for a PR: it runs the pinned
# thermal-kernel, NoC and build-path (code construction, annealing)
# benchmarks (with -benchmem) plus a one-iteration paper-scale pass
# (period sweep, warm and cold build, warm and cold Figure 1 sweep),
# writes BENCH_<pr>.json at the repo root (or
# bench-trajectory.json for a run not tied to a PR) with ns/op,
# B/op and allocs/op per benchmark, and fails if any of the hot loops
# pinned at zero allocations (SteadySolve, TransientStep, CycleLoopStep,
# the NoC kernel's StepIdle, a decode served from the decode memo
# (DecodeMemoHit), plus the obs recording paths HistogramObserve and
# CounterInc) reports a nonzero allocs/op.
#
# Usage: bench.sh [pr-number]        (default: none, recorded as null)
# Env:   BENCHTIME=100x|1s|...       kernel benchtime (default 1s)
#        SKIP_PAPER=1                skip the paper-scale benchmarks
#        BENCH_OUT=path              output path (default BENCH_<pr>.json,
#                                    or bench-trajectory.json without a PR)
set -eu

cd "$(dirname "$0")/.."

PR="${1:-null}"
if [ "$PR" = null ]; then
    OUT="${BENCH_OUT:-bench-trajectory.json}"
else
    OUT="${BENCH_OUT:-BENCH_${PR}.json}"
fi
BENCHTIME="${BENCHTIME:-1s}"
SKIP_PAPER="${SKIP_PAPER:-0}"

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

echo "== thermal kernel benchmarks (benchtime $BENCHTIME)"
go test -run '^$' \
    -bench '^(BenchmarkFactor|BenchmarkFactorBanded|BenchmarkSteadySolve|BenchmarkSteadySolveDense|BenchmarkInfluenceBuild|BenchmarkTransientStep|BenchmarkCycleLoopStep|BenchmarkRunCycle|BenchmarkEvaluateCycle)$' \
    -benchmem -benchtime "$BENCHTIME" ./internal/thermal | tee -a "$TMP"

echo "== NoC kernel and decode-on-NoC benchmarks (benchtime $BENCHTIME)"
go test -run '^$' -bench '^(BenchmarkStepIdle|BenchmarkStepLoaded)$' \
    -benchmem -benchtime "$BENCHTIME" ./internal/noc | tee -a "$TMP"
go test -run '^$' -bench '^(BenchmarkDecodeOnNoC|BenchmarkDecodeMemoHit)$' \
    -benchmem -benchtime "$BENCHTIME" ./internal/appmap | tee -a "$TMP"

echo "== build-path benchmarks: code construction and annealing (benchtime $BENCHTIME)"
go test -run '^$' -bench '^(BenchmarkConstruction|BenchmarkConstructionPaper)$' \
    -benchmem -benchtime "$BENCHTIME" ./internal/ldpc | tee -a "$TMP"
go test -run '^$' -bench '^BenchmarkAnneal$' \
    -benchmem -benchtime "$BENCHTIME" ./internal/place | tee -a "$TMP"

echo "== obs recording benchmarks (benchtime $BENCHTIME)"
go test -run '^$' -bench '^(BenchmarkHistogramObserve|BenchmarkCounterInc)$' \
    -benchmem -benchtime "$BENCHTIME" ./obs | tee -a "$TMP"

if [ "$SKIP_PAPER" != 1 ]; then
    echo "== paper-scale trajectory (1 iteration)"
    go test -run '^$' -bench '^(BenchmarkPeriodSweepShared|BenchmarkBuildWarm|BenchmarkBuildCold|BenchmarkLabSweepWarm|BenchmarkSweepFigure1)$' \
        -benchmem -benchtime=1x -timeout=30m . | tee -a "$TMP"
fi

awk -v pr="$PR" -v gover="$(go version | awk '{print $3}')" '
BEGIN { printf "{\n  \"pr\": %s,\n  \"go\": \"%s\",\n  \"benchmarks\": [\n", pr, gover }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; bop = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i-1)
        else if ($i == "B/op") bop = $(i-1)
        else if ($i == "allocs/op") allocs = $(i-1)
    }
    if (ns == "") next
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s}", \
        name, ns, (bop == "" ? "null" : bop), (allocs == "" ? "null" : allocs)
}
END { printf "\n  ]\n}\n" }
' "$TMP" > "$OUT"
echo "wrote $OUT"

echo "== alloc guard (hot loops pinned at 0 allocs/op)"
awk '
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    if (name != "BenchmarkSteadySolve" && name != "BenchmarkTransientStep" && name != "BenchmarkCycleLoopStep" &&
        name != "BenchmarkStepIdle" && name != "BenchmarkDecodeMemoHit" &&
        name != "BenchmarkHistogramObserve" && name != "BenchmarkCounterInc") next
    seen++
    for (i = 2; i <= NF; i++)
        if ($i == "allocs/op" && $(i-1) + 0 != 0) { print "FAIL: " name " reports " $(i-1) " allocs/op"; bad = 1 }
}
END {
    if (seen < 7) { print "FAIL: pinned benchmarks missing from bench output"; exit 1 }
    if (bad) exit 1
    print "ok: all pinned hot loops at 0 allocs/op"
}
' "$TMP"
