#!/usr/bin/env sh
# check.sh mirrors CI locally: gofmt, build, vet, tests, the full-tree race
# detector, the bench module's vet and short tests, the hotnoclint
# invariant analyzers, the hotnocd service
# smoke, staticcheck/govulncheck when installed, and a one-iteration
# bench smoke over the scaled-down packages so bench code cannot rot.
set -eu

cd "$(dirname "$0")/.."

# One command a line: under set -e a failing command that is not the last
# of an && list does not stop the script.
echo "== gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "not gofmt-formatted:"
    echo "$unformatted"
    exit 1
fi
echo "== go build"
go build ./...
echo "== go vet"
go vet ./...
echo "== go test"
go test ./...
echo "== bench module (vet + short tests against the library API)"
go -C bench vet ./...
go -C bench test -short ./...
echo "== thermal differential (banded vs dense reference, batched, singular, row-run kernels vs frozen band sweeps, width-2/4 lockstep solves and steps vs single ones, cycle sets vs lone and frozen cycles)"
go test -count=1 -run 'TestBanded|TestHotLoopsAllocationFree|MatchesRef|TestLockstep|TestStepStates|TestCycleSet' ./internal/thermal
echo "== fused multiply-add check (arm64 listing of internal/thermal, internal/power and core's power maps)"
sh scripts/fmacheck.sh
echo "== build-path differential (sort-based code construction on any worker count and chunk size, the rank check overlapped with assembly, lagged-Fibonacci stream vs math/rand, Intn-exact draws, lazy encoder under -race, coordinate-based and full-cost annealing, row-at-a-time PeakTemp)"
go test -count=1 -run 'MatchesRef|Stream|Draw|TestAnnealCostAllocationFree' ./internal/ldpc ./internal/place ./internal/chipcfg
go test -race -count=1 -run 'MatchesRef|Stream|Draw|Lazy' ./internal/ldpc ./internal/chipcfg
go test -race -count=10 -run '^(TestParallelDrawMatchesRef|TestOverlappedDrawMatchesNewRegularRetry)$' ./internal/ldpc ./internal/chipcfg
go test -count=1 -run '^TestPeakTempMatchesRef$' ./internal/thermal
echo "== decode differential (traffic-only vs frozen value-carrying decoder, replayed vs simulated phases, decodes and migrations, Replay vs stepping, active-set kernel vs frozen reference on multi-word, non-square and burst-idle meshes)"
go test -count=1 -run 'TestTrafficMatchesValueOracle|TestScheduleMatchesOracle|TestDistributedMatchesReference|TestPhaseReplayMatchesSimulation|TestDecodeSteadyAllocs|TestDecodeMemoMatchesSimulation|TestDecodeMemoHitAllocs' ./internal/appmap
go test -race -count=10 -run '^TestDecodeMemoConcurrent$' ./internal/appmap
go test -count=1 -run 'TestMigrationMemo|TestMigrationReplaysFromAnyArbitration' ./internal/core
go test -race -count=10 -run '^TestMigrationMemoConcurrent$' ./internal/core
echo "== simulator reuse differential (a borrowed simulator vs fresh clones, sequential and on 2 and 4 goroutines under -race; Network.Reset vs New)"
go test -count=1 -run '^(TestBorrowMatchesClone|TestReleaseDropsBusySimulator)$' ./internal/core
go test -race -count=5 -run '^(TestBorrowMatchesClone|TestBorrowConcurrent)$' ./internal/core
go test -count=1 -run '^TestResetMatchesNew$' ./internal/noc
go test -count=1 -run '^TestColdFigure1Simulated(Decodes|Migrations)$' .
go test -count=1 -run 'TestReplayMatchesStepping|TestObservedReplayMatchesStepping|TestNestedReplayMatchesStepping|TestReplayRefusals|TestWindowAllocationFree|TestStepAllocationFree' ./internal/noc
go test -count=1 -run '^TestStepMatchesReference$' ./internal/noc
go test -count=1 -run '^TestColdFigure1SteppedCycles$' .
echo "== cache differential (both artifact kinds through the one cache: stale, legacy-envelope and advisory-lock paths, under -race)"
go test -race -count=3 -run 'Cache|Lock' .
echo "== shared evaluation (concurrent Evaluate, evaluation sets and lockstep reactive sets on one System under -race, sets vs lone runs, cached configuration sets over worker counts under -race, warm- and cold-sweep, evaluation-set and reactive allocation guards)"
go test -race -count=10 -run '^(TestSharedEvaluation|TestReactiveSetConcurrent)$' ./internal/core
go test -count=1 -run '^(TestReactiveSetMatchesIndependent|TestReactiveRejectsNonFinite|TestEvaluateReactiveAllocs|TestReactiveSetErrorNamesRun|TestReactiveTimelineStrideExtremes|TestEvaluateSetMatchesEvaluate|TestEvaluateSetErrorNamesPoint|TestEvaluateSetAllocs)$' ./internal/core
go test -race -count=10 -run '^TestGroupPointsCachedConfigSets$' .
go test -count=1 -run '^(TestWarmSweepAllocs|TestColdSweepAllocs|TestLabReactiveWorkerCounts|TestReactiveSetPaperScale)$' .
go test -race -count=1 -run '^TestColdSweepAllocs$' .
echo "== served path (a scale-8 Figure 1 job's outcome bytes vs their golden, served-sweep allocation guard, name lookups vs the replacer reference)"
go test -count=1 -run '^(TestOutcomeWireGolden|TestServedSweepAllocs)$' ./server
go test -count=1 -run '^TestNameResolutionMatchesReplacer$' .
echo "== go test -race (full tree)"
go test -race ./...
echo "== hotnoclint (lockorder, noalloc, determinism, errcache)"
go run ./cmd/hotnoclint ./...
echo "== service smoke (hotnocd + figure1/hotsim -server)"
sh scripts/service_smoke.sh

if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck"
    staticcheck ./...
else
    echo "== staticcheck not installed; skipping (CI runs it)"
fi

if command -v govulncheck >/dev/null 2>&1; then
    echo "== govulncheck"
    govulncheck ./...
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
