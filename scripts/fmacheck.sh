#!/usr/bin/env sh
# fmacheck.sh fails if the arm64 build of internal/thermal fuses a
# multiply with an add or subtract (FMADDD, FMSUBD, FNMADDD, FNMSUBD) in
# a transient-step, banded-solve or cycle-set kernel (RunCycle,
# RunCycleSet and the lane functions they step through). Those kernels
# write every product as float64(a*b), which forbids fusion, so the
# single-column and the lockstep paths round the same operations on
# every GOARCH and a lockstep run stays bitwise equal to its lone run.
# The check compiles for arm64 (no arm64 machine needed) and reads the
# compiler's assembly listing; it also fails if a listed kernel is
# missing from the listing, so a rename cannot retire the check. Run
# from anywhere:
#
#   sh scripts/fmacheck.sh
set -eu

cd "$(dirname "$0")/.."

KERNELS='(*BandedLU).solveSingle subRun (*BandedLU).solve2 subRun2 (*BandedLU).solve4 subRun4 (*BandedLU).border2 (*BandedLU).border4 (*BandedLU).solveBordered (*BandedLU).Solve (*BandedLU).SolveBatch gatherPanel scatterPanel (*Transient).Step (*Transient).stepInto (*Transient).StepStates assembleLanes scatterLanes (*Evaluator).RunCycle (*Evaluator).RunCycleSet (*Evaluator).stepCycles (*Evaluator).warmStart (*cycleLane).assemble (*cycleLane).record (*cycleLane).advance (*cycleLane).finish'

ASM="$(mktemp)"
trap 'rm -f "$ASM"' EXIT
GOARCH=arm64 go build -gcflags=-S ./internal/thermal 2> "$ASM"

awk -v kernels="$KERNELS" '
BEGIN {
    n = split(kernels, k, " ")
    for (i = 1; i <= n; i++) want["hotnoc/internal/thermal." k[i]] = 1
}
# A generic kernel is listed once; its instantiations (name[shape]) count.
/ STEXT / { fn = $1; sub(/\[.*$/, "", fn); if (fn in want) seen[fn] = 1; next }
/^\t0x[0-9a-f]+ [0-9]+ \(.*\)\tF(N)?M(ADD|SUB)D\t/ {
    if (fn in want) { print "FAIL: fused multiply-add in " fn ": " $0; bad = 1 }
}
END {
    for (f in want) if (!(f in seen)) { print "FAIL: kernel " f " not in the arm64 listing"; bad = 1 }
    if (bad) exit 1
    print "ok: no fused multiply-add in " n " thermal kernels on arm64"
}
' "$ASM"
