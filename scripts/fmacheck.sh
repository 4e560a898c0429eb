#!/usr/bin/env sh
# fmacheck.sh fails if the arm64 build of internal/thermal or
# internal/core fuses a multiply with an add or subtract (FMADDD, FMSUBD,
# FNMADDD, FNMSUBD) in a transient-step, banded-solve or lockstep kernel:
# the lane driver (StepLanes), its warm start and step count, the cycle
# and reactive runs it steps, and the power maps core builds for them
# (schedule, reactiveLegs). Those kernels write every product as
# float64(a*b), which forbids fusion, so the single-column and the
# lockstep paths round the same operations on every GOARCH and a
# lockstep run stays bitwise equal to its lone run. Kernels are listed
# package-qualified; a kernel's closures (name.funcN) count as the
# kernel. The check compiles for arm64 (no arm64 machine needed) and
# reads the compiler's assembly listing; it also fails if a listed
# kernel is missing from the listing, so a rename cannot retire the
# check. Run from anywhere:
#
#   sh scripts/fmacheck.sh
set -eu

cd "$(dirname "$0")/.."

KERNELS='thermal.(*BandedLU).solveSingle thermal.subRun thermal.(*BandedLU).solve2 thermal.subRun2
thermal.(*BandedLU).solve4 thermal.subRun4 thermal.(*BandedLU).border2 thermal.(*BandedLU).border4
thermal.(*BandedLU).solveBordered thermal.(*BandedLU).Solve thermal.(*BandedLU).SolveBatch
thermal.gatherPanel thermal.scatterPanel thermal.(*Transient).Step thermal.(*Transient).stepInto
thermal.(*Transient).StepStates thermal.assembleLanes thermal.scatterLanes
thermal.(*Evaluator).StepLanes thermal.(*Evaluator).WarmStart thermal.Steps
thermal.(*Evaluator).RunCycle thermal.(*Evaluator).RunCycleSet thermal.(*cycleRun).average
thermal.(*cycleRun).record thermal.(*cycleRun).advance thermal.(*cycleRun).finish
core.(*System).schedule core.(*System).reactiveLegs core.(*System).stepRuns
core.(*System).beginBlock core.(*System).endWindow'

ASM="$(mktemp)"
trap 'rm -f "$ASM"' EXIT
GOARCH=arm64 go build -gcflags=-S ./internal/thermal ./internal/core 2> "$ASM"

awk -v kernels="$KERNELS" '
BEGIN {
    n = split(kernels, k, /[ \n]+/)
    for (i = 1; i <= n; i++) want["hotnoc/internal/" k[i]] = 1
}
# A generic kernel is listed once; its instantiations (name[shape]) and
# its closures (name.func1, name.func1.2) count as the kernel.
/ STEXT / { fn = $1; sub(/\[.*$/, "", fn); sub(/(\.func[0-9]+)+(\.[0-9]+)*$/, "", fn); if (fn in want) seen[fn] = 1; next }
/^\t0x[0-9a-f]+ [0-9]+ \(.*\)\tF(N)?M(ADD|SUB)D\t/ {
    if (fn in want) { print "FAIL: fused multiply-add in " fn ": " $0; bad = 1 }
}
END {
    for (f in want) if (!(f in seen)) { print "FAIL: kernel " f " not in the arm64 listing"; bad = 1 }
    if (bad) exit 1
    print "ok: no fused multiply-add in " n " thermal and core kernels on arm64"
}
' "$ASM"
