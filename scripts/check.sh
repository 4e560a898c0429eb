#!/usr/bin/env sh
# check.sh mirrors CI locally: build, vet, tests, the full-tree race
# detector, the bench module's vet and short tests, the hotnoclint
# invariant analyzers, the hotnocd service
# smoke, staticcheck/govulncheck when installed, and a one-iteration
# bench smoke over the scaled-down packages so bench code cannot rot.
set -eu

cd "$(dirname "$0")/.."

echo "== go build" && go build ./...
echo "== go vet" && go vet ./...
echo "== go test" && go test ./...
echo "== bench module (vet + short tests against the library API)" \
    && go -C bench vet ./... && go -C bench test -short ./...
echo "== thermal differential (banded vs dense reference, batched, singular)" \
    && go test -count=1 -run 'TestBanded|TestHotLoopsAllocationFree' ./internal/thermal
echo "== build-path differential (sort-based code construction, coordinate-based anneal cost)" \
    && go test -count=1 -run 'MatchesRef|TestAnnealCostAllocationFree' ./internal/ldpc ./internal/place
echo "== decode differential (traffic-only vs frozen value-carrying decoder, replayed vs simulated phases and decodes, Replay vs stepping)" \
    && go test -count=1 -run 'TestTrafficMatchesValueOracle|TestScheduleMatchesOracle|TestDistributedMatchesReference|TestPhaseReplayMatchesSimulation|TestDecodeSteadyAllocs|TestDecodeMemoMatchesSimulation|TestDecodeMemoHitAllocs' ./internal/appmap \
    && go test -race -count=10 -run '^TestDecodeMemoConcurrent$' ./internal/appmap \
    && go test -count=1 -run '^TestColdFigure1SimulatedDecodes$' . \
    && go test -count=1 -run 'TestReplayMatchesStepping|TestReplayRefusals|TestWindowAllocationFree' ./internal/noc
echo "== shared evaluation (concurrent Evaluate on one System under -race, warm-sweep allocation guard)" \
    && go test -race -count=10 -run '^TestSharedEvaluation$' ./internal/core \
    && go test -count=1 -run '^TestWarmSweepAllocs$' .
echo "== go test -race (full tree)" && go test -race ./...
echo "== hotnoclint (lockorder, noalloc, determinism, errcache)" \
    && go run ./cmd/hotnoclint ./...
echo "== service smoke (hotnocd + figure1/hotsim -server)" && sh scripts/service_smoke.sh

if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck" && staticcheck ./...
else
    echo "== staticcheck not installed; skipping (CI runs it)"
fi

if command -v govulncheck >/dev/null 2>&1; then
    echo "== govulncheck" && govulncheck ./...
else
    echo "== govulncheck not installed; skipping (CI runs it)"
fi

echo "== bench smoke (internal packages + obs, 1 iteration)"
go test -run '^$' -bench=. -benchtime=1x ./internal/... ./obs

echo "== bench smoke (warm build reconstitution, 1 iteration)"
go test -run '^$' -bench 'BenchmarkBuildWarm' -benchtime=1x .

echo "== bench trajectory + alloc guard (scripts/bench.sh, kernels only)"
BENCHTIME=100x SKIP_PAPER=1 BENCH_OUT=/tmp/bench_smoke.json sh scripts/bench.sh

echo "ok"
