#!/usr/bin/env sh
# bench.sh records the benchmark trajectory for a PR: it runs the pinned
# thermal-kernel (plus a warm paper-scale reactive evaluation), NoC and
# build-path (code construction, annealing) benchmarks (with -benchmem)
# plus a paper-scale pass
# (period sweep, warm Lab sweep, warm reactive reference set, warm and
# cold build, cold Figure 1 sweep; the cold sweep's builds are made
# outside the timer),
# writes BENCH_<pr>.json at the repo root (or
# bench-trajectory.json for a run not tied to a PR) with ns/op,
# B/op and allocs/op per benchmark, and fails if any of the hot loops
# pinned at zero allocations (SteadySolve, TransientStep, CycleLoopStep,
# the NoC kernel's StepIdle, a decode served from the decode memo
# (DecodeMemoHit), plus the obs recording paths HistogramObserve and
# CounterInc) reports a nonzero allocs/op. That verdict is taken from
# runs of at least 100 iterations: at a benchtime of fewer (1x, say) the
# pinned benchmarks run once more at 100x for it, since one iteration
# reads a stray runtime allocation as 1 allocs/op.
#
# Every benchmark runs REPEAT=5 times, so a change to it can be told
# apart from host noise: the whole set runs in REPEAT passes, one run of
# each benchmark per pass, and each row records the median run's ns/op,
# B/op and allocs/op plus "runs" and the ns/op
# "ns_per_op_min"/"ns_per_op_max".
# The lockstep kernels (SolveLockstep, StepLockstep) report one column,
# one state's solve or step, per op; CycleSet reports ns/lane-step, one
# schedule's step of a lockstep cycle set, beside its ns per set.
# The warm thermal path's speed depends on where the hot kernels sit
# relative to 64-byte lines, so the output also records, under "layout",
# the address mod 64 of solveSingle, solve4 and the lockstep lane driver
# (StepLanes) in each benchmark binary that links them; a symbol that no
# binary links gets a "missing" row (null binary and address) instead.
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
REPEAT=5

# GUARDTIME is the benchtime of the runs the alloc guard reads.
GUARDTIME=$BENCHTIME
case $BENCHTIME in
*x) [ "${BENCHTIME%x}" -ge 100 ] || GUARDTIME=100x ;;
esac

TMP="$(mktemp)"
GUARD="$TMP"
LAYOUT="$(mktemp)"
BIN="$(mktemp -d)"
trap 'rm -rf "$TMP" "$GUARD" "$LAYOUT" "$BIN"' EXIT

# bench PKG REGEX BENCHTIME [flag...] runs one benchmark set once,
# appending its output to $SINK. Each package's test binary is built on
# first use and reused by every pass, so all passes time the same code
# layout.
SINK="$TMP"
bench() {
    pkg=$1 re=$2 bt=$3
    shift 3
    bin="$BIN/$(echo "$pkg" | tr './' '__').test"
    [ -x "$bin" ] || go test -c -o "$bin" "$pkg"
    (cd "$pkg" && "$bin" -test.run '^$' -test.bench "$re" -test.benchmem \
        -test.benchtime "$bt" -test.count 1 "$@") | tee -a "$SINK"
}

# The REPEAT passes are the outer loop over the whole set, so a noise
# phase of the host spreads across benchmarks instead of landing on all
# repeats of one.
pass=1
while [ "$pass" -le "$REPEAT" ]; do
    echo "== pass $pass/$REPEAT: thermal kernel benchmarks (benchtime $BENCHTIME)"
    bench ./internal/thermal '^(BenchmarkFactor|BenchmarkFactorBanded|BenchmarkSteadySolve|BenchmarkSteadySolveDense|BenchmarkInfluenceBuild|BenchmarkInfluencePeak|BenchmarkTransientStep|BenchmarkCycleLoopStep|BenchmarkRunCycle|BenchmarkEvaluateCycle|BenchmarkSolveLockstep|BenchmarkStepLockstep|BenchmarkCycleSet)$' "$BENCHTIME"
    bench . '^BenchmarkEvaluateReactive$' "$BENCHTIME"

    echo "== pass $pass/$REPEAT: NoC kernel and decode-on-NoC benchmarks (benchtime $BENCHTIME)"
    bench ./internal/noc '^BenchmarkStepIdle$' "$BENCHTIME"
    bench ./internal/noc '^BenchmarkStepLoaded$' "$BENCHTIME"
    bench ./internal/appmap '^BenchmarkDecodeOnNoC$' "$BENCHTIME"
    bench ./internal/appmap '^BenchmarkDecodeMemoHit$' "$BENCHTIME"

    echo "== pass $pass/$REPEAT: build-path benchmarks: code construction and annealing (benchtime $BENCHTIME)"
    bench ./internal/ldpc '^(BenchmarkConstruction|BenchmarkConstructionPaper)$' "$BENCHTIME"
    bench ./internal/place '^BenchmarkAnneal$' "$BENCHTIME"

    echo "== pass $pass/$REPEAT: obs recording benchmarks (benchtime $BENCHTIME)"
    bench ./obs '^(BenchmarkHistogramObserve|BenchmarkCounterInc)$' "$BENCHTIME"

    if [ "$SKIP_PAPER" != 1 ]; then
        echo "== pass $pass/$REPEAT: paper-scale trajectory (1 iteration each, the reactive set 3)"
        bench . '^(BenchmarkPeriodSweepShared|BenchmarkLabSweepWarm)$' 1x -test.timeout 30m
        bench . '^BenchmarkReactiveSet$' 3x -test.timeout 30m
        bench . '^(BenchmarkSweepFigure1|BenchmarkBuildWarm|BenchmarkBuildCold)$' 1x -test.timeout 30m
    fi
    pass=$((pass + 1))
done

# Code layout of the hot thermal kernels in every binary that links them,
# and a "missing" row for a kernel that none links (a rename, say).
KERNELS='(*BandedLU).solveSingle (*BandedLU).solve4 (*Evaluator).StepLanes'
for bin in "$BIN"/*.test; do
    go tool nm "$bin" | awk -v bin="$(basename "$bin")" -v kernels="$KERNELS" '
    BEGIN { n = split(kernels, k, " "); for (i = 1; i <= n; i++) want["hotnoc/internal/thermal." k[i]] = 1 }
    $3 in want {
        addr = 0
        for (i = 1; i <= length($1); i++) addr = (addr * 16 + index("0123456789abcdef", substr($1, i, 1)) - 1) % 64
        sub(/^hotnoc\/internal\/thermal\./, "", $3)
        print bin, $3, addr
    }'
done > "$LAYOUT"
MISSING="$(awk -v kernels="$KERNELS" '{ seen[$2] = 1 }
    END { n = split(kernels, k, " "); for (i = 1; i <= n; i++) if (!(k[i] in seen)) print "missing", k[i] }' "$LAYOUT")"
[ -z "$MISSING" ] || echo "$MISSING" >> "$LAYOUT"
cat "$LAYOUT"

awk -v pr="$PR" -v gover="$(go version | awk '{print $3}')" -v layout="$LAYOUT" '
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; bop = "null"; allocs = "null"; lane = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i-1)
        else if ($i == "B/op") bop = $(i-1)
        else if ($i == "allocs/op") allocs = $(i-1)
        else if ($i == "ns/lane-step") lane = $(i-1)
    }
    if (ns == "") next
    if (!(name in runs)) order[++names] = name
    k = ++runs[name]
    nsv[name, k] = ns; bopv[name, k] = bop; allocv[name, k] = allocs; lanev[name, k] = lane
}
END {
    printf "{\n  \"pr\": %s,\n  \"go\": \"%s\",\n  \"benchmarks\": [\n", pr, gover
    for (b = 1; b <= names; b++) {
        name = order[b]; n = runs[name]
        # Sort run indices by ns/op; the median run is the middle one.
        for (i = 1; i <= n; i++) idx[i] = i
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && nsv[name, idx[j-1]] + 0 > nsv[name, idx[j]] + 0; j--) {
                t = idx[j]; idx[j] = idx[j-1]; idx[j-1] = t
            }
        m = idx[int((n + 1) / 2)]
        if (b > 1) printf ",\n"
        printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s", \
            name, nsv[name, m], bopv[name, m], allocv[name, m]
        if (lanev[name, m] != "") printf ", \"ns_per_lane_step\": %s", lanev[name, m]
        if (n > 1)
            printf ", \"runs\": %d, \"ns_per_op_min\": %s, \"ns_per_op_max\": %s", n, nsv[name, idx[1]], nsv[name, idx[n]]
        printf "}"
    }
    printf "\n  ],\n  \"layout\": ["
    n = 0
    while ((getline line < layout) > 0) {
        split(line, f, " ")
        if (f[1] == "missing")
            printf "%s\n    {\"binary\": null, \"symbol\": \"%s\", \"addr_mod_64\": null, \"missing\": true}", (n++ ? "," : ""), f[2]
        else
            printf "%s\n    {\"binary\": \"%s\", \"symbol\": \"%s\", \"addr_mod_64\": %s}", (n++ ? "," : ""), f[1], f[2], f[3]
    }
    printf "\n  ]\n}\n"
}
' "$TMP" > "$OUT"
echo "wrote $OUT"

if [ "$GUARDTIME" != "$BENCHTIME" ]; then
    echo "== alloc guard pass: the pinned hot loops again (benchtime $GUARDTIME)"
    GUARD="$(mktemp)"
    SINK="$GUARD"
    bench ./internal/thermal '^(BenchmarkSteadySolve|BenchmarkTransientStep|BenchmarkCycleLoopStep)$' "$GUARDTIME"
    bench ./internal/noc '^BenchmarkStepIdle$' "$GUARDTIME"
    bench ./internal/appmap '^BenchmarkDecodeMemoHit$' "$GUARDTIME"
    bench ./obs '^(BenchmarkHistogramObserve|BenchmarkCounterInc)$' "$GUARDTIME"
fi

echo "== alloc guard (hot loops pinned at 0 allocs/op, benchtime $GUARDTIME)"
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
' "$GUARD"
