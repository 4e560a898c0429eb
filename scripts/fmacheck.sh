#!/usr/bin/env sh
# fmacheck.sh fails if the arm64 build fuses a multiply with an add or
# subtract (FMADDD, FMSUBD, FNMADDD, FNMSUBD) anywhere in internal/thermal
# or internal/power, or in one of the listed internal/core functions that
# build the power maps and energies the thermal model steps: schedule,
# reactiveLegs, the reactive stepping (stepRuns, beginBlock, endWindow)
# and blockEnergies, which inlines power's BlockEnergyJ. Those packages
# and functions write every product as float64(a*b), which forbids
# fusion, so the single-column and the lockstep paths round the same
# operations on every GOARCH and a lockstep run stays bitwise equal to
# its lone run. Core functions are listed package-qualified; a function's
# closures (name.funcN) count as the function. The check compiles for
# arm64 (no arm64 machine needed) and reads the compiler's assembly
# listing; it also fails if a listed function, or any function of a
# whole-package check, is missing from the listing, so a rename cannot
# retire the check. Run from anywhere:
#
#   sh scripts/fmacheck.sh
set -eu

cd "$(dirname "$0")/.."

PACKAGES='thermal power'
KERNELS='core.(*System).schedule core.(*System).reactiveLegs core.(*System).stepRuns
core.(*System).beginBlock core.(*System).endWindow core.blockEnergies'

ASM="$(mktemp)"
trap 'rm -f "$ASM"' EXIT
GOARCH=arm64 go build -gcflags=-S ./internal/thermal ./internal/power ./internal/core 2> "$ASM"

awk -v packages="$PACKAGES" -v kernels="$KERNELS" '
BEGIN {
    np = split(packages, p, /[ \n]+/)
    for (i = 1; i <= np; i++) pkg["hotnoc/internal/" p[i]] = 1
    nk = split(kernels, k, /[ \n]+/)
    for (i = 1; i <= nk; i++) want["hotnoc/internal/" k[i]] = 1
}
# A generic function is listed once; its instantiations (name[shape]) and
# its closures (name.func1, name.func1.2) count as the function.
/ STEXT / {
    fn = $1; sub(/\[.*$/, "", fn); sub(/(\.func[0-9]+)+(\.[0-9]+)*$/, "", fn)
    path = fn; sub(/\.[^\/]*$/, "", path)
    checked = (fn in want) || (path in pkg)
    if (fn in want) seen[fn] = 1
    if (path in pkg) { seen[path] = 1; funcs++ }
    next
}
/^\t0x[0-9a-f]+ [0-9]+ \(.*\)\tF(N)?M(ADD|SUB)D\t/ {
    if (checked) { print "FAIL: fused multiply-add in " fn ": " $0; bad = 1 }
}
END {
    for (f in pkg) if (!(f in seen)) { print "FAIL: package " f " not in the arm64 listing"; bad = 1 }
    for (f in want) if (!(f in seen)) { print "FAIL: function " f " not in the arm64 listing"; bad = 1 }
    if (bad) exit 1
    print "ok: no fused multiply-add in " funcs " thermal and power functions or " nk " core functions on arm64"
}
' "$ASM"
