#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# flags. Run from the repository root:
#
#   bash bench/run.sh --workload fig1-cold --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -runs 3            # every workload, 3 runs each
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
# The toolchain never reaches the network: the harness module depends only
# on the repository next to it.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"

export GOCACHE="$out/go-build" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd bench && go build -o "$out/hotnocbench" .)
exec "$out/hotnocbench" "$@"
