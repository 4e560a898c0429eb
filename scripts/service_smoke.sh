#!/usr/bin/env sh
# service_smoke.sh: end-to-end smoke of the hotnocd service path. Builds
# hotnocd, figure1 and hotsim, starts a daemon on a scratch port with a
# scratch cache dir, runs the figure remotely, and requires the JSON to
# be byte-identical to the in-process run — then runs it remotely again
# to prove the daemon's characterization cache serves the repeat.
# It then pushes a reactive (threshold-triggered) evaluation through
# the same daemon and requires hotsim's report to be byte-identical to
# the in-process run — the unified point model's remote surface, end to
# end. It then restarts the daemon on the same cache dir and requires
# the restarted daemon to warm-start: byte-identical output with zero
# builds (annealing/calibration) and zero NoC decodes, asserted through
# /v1/stats. Finally it restarts once more with a tenants file and
# exercises the multi-tenant surface: unauthenticated submissions are
# 401, an authenticated figure1 -server run stays byte-identical to the
# in-process run, an over-rate tenant gets 429 + Retry-After, and the
# rejection shows up in that tenant's /v1/stats accounting. On the same
# tenants daemon it exercises the observability surface: /metrics must
# expose the stage-latency histograms, per-tenant job counters and the
# throttled tenant's exact rejection count, and a background 5-point
# sweep's ordered event stream must advance points_done through every
# intermediate value to completion, with GET /v1/jobs/{id} agreeing. CI runs this as
# the service-smoke job; check.sh mirrors it locally.
set -eu

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
daemon_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

go build -o "$workdir/hotnocd" ./cmd/hotnocd
go build -o "$workdir/figure1" ./cmd/figure1
go build -o "$workdir/hotsim" ./cmd/hotsim

port=$((20000 + $$ % 10000))
addr="127.0.0.1:$port"
"$workdir/hotnocd" -addr "$addr" -cache-dir "$workdir/cache" >"$workdir/daemon.log" 2>&1 &
daemon_pid=$!

echo "== figure1 in process"
"$workdir/figure1" -scale 8 -configs A,E -json >"$workdir/local.json"

echo "== figure1 -server http://$addr (cold daemon)"
ok=0
i=0
while [ "$i" -lt 50 ]; do
    if "$workdir/figure1" -server "http://$addr" -scale 8 -configs A,E -json \
        >"$workdir/remote.json" 2>"$workdir/remote.err"; then
        ok=1
        break
    fi
    i=$((i + 1))
    sleep 0.2
done
if [ "$ok" != 1 ]; then
    echo "service smoke: daemon never served figure1" >&2
    cat "$workdir/remote.err" "$workdir/daemon.log" >&2
    exit 1
fi

if ! cmp -s "$workdir/local.json" "$workdir/remote.json"; then
    echo "service smoke: remote JSON differs from in-process run" >&2
    diff "$workdir/local.json" "$workdir/remote.json" >&2 || true
    exit 1
fi

echo "== figure1 -server http://$addr (warm daemon cache)"
"$workdir/figure1" -server "http://$addr" -scale 8 -configs A,E -json >"$workdir/remote2.json"
if ! cmp -s "$workdir/local.json" "$workdir/remote2.json"; then
    echo "service smoke: warm remote JSON differs" >&2
    exit 1
fi

reactive_flags="-reactive -trigger 84 -sim-blocks 300 -warmup-blocks 150 -config A -scale 8"

echo "== hotsim $reactive_flags (in process)"
# shellcheck disable=SC2086
"$workdir/hotsim" $reactive_flags >"$workdir/reactive_local.txt"

echo "== hotsim $reactive_flags -server http://$addr"
# shellcheck disable=SC2086
"$workdir/hotsim" $reactive_flags -server "http://$addr" >"$workdir/reactive_remote.txt"
if ! cmp -s "$workdir/reactive_local.txt" "$workdir/reactive_remote.txt"; then
    echo "service smoke: remote reactive report differs from in-process run" >&2
    diff "$workdir/reactive_local.txt" "$workdir/reactive_remote.txt" >&2 || true
    exit 1
fi

echo "== restarting the daemon on the same cache dir"
kill "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
"$workdir/hotnocd" -addr "$addr" -cache-dir "$workdir/cache" >"$workdir/daemon2.log" 2>&1 &
daemon_pid=$!

echo "== figure1 -server http://$addr (restarted daemon, warm cache dir)"
ok=0
i=0
while [ "$i" -lt 50 ]; do
    if "$workdir/figure1" -server "http://$addr" -scale 8 -configs A,E -json \
        >"$workdir/remote3.json" 2>"$workdir/remote3.err"; then
        ok=1
        break
    fi
    i=$((i + 1))
    sleep 0.2
done
if [ "$ok" != 1 ]; then
    echo "service smoke: restarted daemon never served figure1" >&2
    cat "$workdir/remote3.err" "$workdir/daemon2.log" >&2
    exit 1
fi
if ! cmp -s "$workdir/local.json" "$workdir/remote3.json"; then
    echo "service smoke: restarted daemon's JSON differs from in-process run" >&2
    diff "$workdir/local.json" "$workdir/remote3.json" >&2 || true
    exit 1
fi

# The restarted daemon must have reconstituted every build from the
# persisted snapshots (zero cold builds) and served every orbit from the
# characterization cache (zero decodes).
fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1"
    else
        wget -qO- "$1"
    fi
}
stats=$(fetch "http://$addr/v1/stats")
echo "$stats" >"$workdir/stats.json"
case "$stats" in
*'"build_misses":0'*) ;;
*)
    echo "service smoke: restarted daemon performed cold builds: $stats" >&2
    exit 1
    ;;
esac
case "$stats" in
*'"decodes":0'*) ;;
*)
    echo "service smoke: restarted daemon re-simulated orbits: $stats" >&2
    exit 1
    ;;
esac
case "$stats" in
*'"build_hits":2'*) ;;
*)
    echo "service smoke: restarted daemon did not warm-start its builds: $stats" >&2
    exit 1
    ;;
esac

echo "== restarting the daemon with a tenants file"
kill "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true

hash_key() {
    if command -v sha256sum >/dev/null 2>&1; then
        printf '%s' "$1" | sha256sum | cut -d' ' -f1
    elif command -v shasum >/dev/null 2>&1; then
        printf '%s' "$1" | shasum -a 256 | cut -d' ' -f1
    else
        printf '%s' "$1" | openssl dgst -sha256 | awk '{print $NF}'
    fi
}

ci_key="smoke-ci-key-$$"
throttled_key="smoke-throttled-key-$$"
cat >"$workdir/tenants.json" <<EOF
{
  "tenants": [
    {"id": "ci", "key_sha256": "$(hash_key "$ci_key")", "weight": 2},
    {"id": "throttled", "key_sha256": "$(hash_key "$throttled_key")",
     "rate_per_sec": 0.001, "burst": 1}
  ]
}
EOF
# -workers 1 serializes the Lab pipeline so the progress poll below
# deterministically observes points completing one at a time; the
# figure1 run on this daemon is fully cache-warm, so it costs nothing.
"$workdir/hotnocd" -addr "$addr" -cache-dir "$workdir/cache" \
    -tenants "$workdir/tenants.json" -workers 1 >"$workdir/daemon3.log" 2>&1 &
daemon_pid=$!

i=0
while [ "$i" -lt 50 ]; do
    if fetch "http://$addr/healthz" >/dev/null 2>&1; then
        break
    fi
    i=$((i + 1))
    sleep 0.2
done

# post_sweep KEY: submit a one-point sweep (Bearer KEY when non-empty),
# print the HTTP status, leave the response headers in resp_hdrs.
post_sweep() {
    body='{"scale":8,"points":[{"config":"A","scheme":"Rot","blocks":1}]}'
    if command -v curl >/dev/null 2>&1; then
        if [ -n "$1" ]; then
            curl -s -o /dev/null -D "$workdir/resp_hdrs" -w '%{http_code}' \
                -H "Authorization: Bearer $1" -H 'Content-Type: application/json' \
                -d "$body" "http://$addr/v1/sweeps"
        else
            curl -s -o /dev/null -D "$workdir/resp_hdrs" -w '%{http_code}' \
                -H 'Content-Type: application/json' \
                -d "$body" "http://$addr/v1/sweeps"
        fi
    else
        if [ -n "$1" ]; then
            wget -O /dev/null --server-response \
                --header "Authorization: Bearer $1" --header 'Content-Type: application/json' \
                --post-data "$body" "http://$addr/v1/sweeps" 2>"$workdir/resp_hdrs" || true
        else
            wget -O /dev/null --server-response \
                --header 'Content-Type: application/json' \
                --post-data "$body" "http://$addr/v1/sweeps" 2>"$workdir/resp_hdrs" || true
        fi
        awk '/^  HTTP\//{code=$2} END{print code}' "$workdir/resp_hdrs"
    fi
}

echo "== unauthenticated submission is rejected"
status=$(post_sweep "")
if [ "$status" != "401" ]; then
    echo "service smoke: unauthenticated sweep answered $status, want 401" >&2
    cat "$workdir/daemon3.log" >&2
    exit 1
fi
status=$(post_sweep "wrong-key")
if [ "$status" != "401" ]; then
    echo "service smoke: wrong-key sweep answered $status, want 401" >&2
    exit 1
fi

echo "== figure1 -server http://$addr -api-key ... (authenticated tenant)"
"$workdir/figure1" -server "http://$addr" -api-key "$ci_key" \
    -scale 8 -configs A,E -json >"$workdir/remote4.json"
if ! cmp -s "$workdir/local.json" "$workdir/remote4.json"; then
    echo "service smoke: authenticated remote JSON differs from in-process run" >&2
    diff "$workdir/local.json" "$workdir/remote4.json" >&2 || true
    exit 1
fi

echo "== over-rate tenant gets 429 + Retry-After"
status=$(post_sweep "$throttled_key")
if [ "$status" != "201" ]; then
    echo "service smoke: throttled tenant's first sweep answered $status, want 201" >&2
    exit 1
fi
status=$(post_sweep "$throttled_key")
if [ "$status" != "429" ]; then
    echo "service smoke: over-rate sweep answered $status, want 429" >&2
    exit 1
fi
if ! grep -qi '^retry-after:' "$workdir/resp_hdrs" &&
    ! grep -qi 'Retry-After' "$workdir/resp_hdrs"; then
    echo "service smoke: over-rate 429 carries no Retry-After header" >&2
    cat "$workdir/resp_hdrs" >&2
    exit 1
fi

echo "== per-tenant accounting on /v1/stats"
if command -v curl >/dev/null 2>&1; then
    stats=$(curl -fsS -H "Authorization: Bearer $ci_key" "http://$addr/v1/stats")
else
    stats=$(wget -qO- --header "Authorization: Bearer $ci_key" "http://$addr/v1/stats")
fi
case "$stats" in
*'"auth_required":true'*) ;;
*)
    echo "service smoke: stats do not report auth_required: $stats" >&2
    exit 1
    ;;
esac
case "$stats" in
*'"id":"throttled"'*'"rejected":1'* | *'"rejected":1'*'"id":"throttled"'*) ;;
*)
    echo "service smoke: throttled tenant's rejection missing from stats: $stats" >&2
    exit 1
    ;;
esac

echo "== /metrics exposition on the tenants daemon"
# /metrics is unauthenticated like /healthz — a scraper needs no tenant
# key. The ci tenant ran figure1 (A,E x 5 schemes) and the throttled
# tenant holds exactly one accepted job and one 429.
metrics=$(fetch "http://$addr/metrics")
echo "$metrics" >"$workdir/metrics.txt"
for want in \
    '# TYPE hotnoc_stage_seconds histogram' \
    'hotnoc_stage_seconds_count{scale="8",stage="evaluate"}' \
    '# TYPE hotnocd_queue_wait_seconds histogram' \
    'hotnocd_jobs_total{state="done",tenant="ci"}' \
    'hotnocd_submissions_rejected_total{tenant="throttled"} 1'; do
    case "$metrics" in
    *"$want"*) ;;
    *)
        echo "service smoke: /metrics is missing '$want'" >&2
        exit 1
        ;;
    esac
done

echo "== live job introspection: points_done advances on a running sweep"
# Config B at paper scale is absent from the warm cache (every earlier
# phase runs scale 8), so its build and five characterizations keep the
# job running while its event stream is read and the GETs below race a
# live sweep.
progress_body='{"scale":1,"points":[
  {"config":"B","scheme":"rot","blocks":1},
  {"config":"B","scheme":"x mirror","blocks":1},
  {"config":"B","scheme":"x-y mirror","blocks":1},
  {"config":"B","scheme":"right shift","blocks":1},
  {"config":"B","scheme":"x-y shift","blocks":1}]}'
if command -v curl >/dev/null 2>&1; then
    created=$(curl -fsS -H "Authorization: Bearer $ci_key" \
        -H 'Content-Type: application/json' -d "$progress_body" "http://$addr/v1/sweeps")
else
    created=$(wget -qO- --header "Authorization: Bearer $ci_key" \
        --header 'Content-Type: application/json' \
        --post-data "$progress_body" "http://$addr/v1/sweeps")
fi
job_id=$(printf '%s' "$created" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
if [ -z "$job_id" ]; then
    echo "service smoke: progress sweep submission returned no job id: $created" >&2
    exit 1
fi

fetch_job() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS -H "Authorization: Bearer $ci_key" "http://$addr/v1/jobs/$job_id"
    else
        wget -qO- --header "Authorization: Bearer $ci_key" "http://$addr/v1/jobs/$job_id"
    fi
}
stream_job() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsSN -H "Authorization: Bearer $ci_key" "http://$addr/v1/sweeps/$job_id/events"
    else
        wget -qO- --header "Authorization: Bearer $ci_key" "http://$addr/v1/sweeps/$job_id/events"
    fi
}
# The job's event stream is the ordered record of its progress: one
# outcome frame per finished point, index 0 to 4, each appended under the
# same lock that advances points_done, then a done frame. So points_done
# passes through every value from 0 to 5 in the frames, and a
# GET /v1/jobs/{id} made after reading outcome frame k must report at
# least k points done, never fewer than the previous GET, never more
# than 5. A stream replays from its start, so this holds however fast
# the sweep runs; polling GET alone missed intermediate values whenever
# points landed closer together than the poll interval.
if ! seen=$(stream_job | {
    event="" seen=0 prev=0
    while IFS= read -r line; do
        case "$line" in
        'event: '*) event=${line#event: } ;;
        'data: '*)
            case "$event" in
            outcome)
                idx=$(printf '%s' "$line" | sed -n 's/^data: {"index":\([0-9]*\),.*/\1/p')
                if [ "$idx" != "$seen" ]; then
                    echo "service smoke: outcome frame $((seen + 1)) carries index '$idx'" >&2
                    exit 1
                fi
                seen=$((seen + 1))
                info=$(fetch_job)
                done_n=$(printf '%s' "$info" | sed -n 's/.*"points_done":\([0-9]*\).*/\1/p')
                [ -z "$done_n" ] && done_n=0
                if [ "$done_n" -lt "$seen" ] || [ "$done_n" -lt "$prev" ] || [ "$done_n" -gt 5 ]; then
                    echo "service smoke: points_done $done_n after outcome frame $seen (previous GET $prev): $info" >&2
                    exit 1
                fi
                prev=$done_n
                ;;
            done)
                echo "$seen"
                exit 0
                ;;
            error)
                echo "service smoke: progress sweep ended badly: $line" >&2
                exit 1
                ;;
            esac
            ;;
        esac
    done
    echo "service smoke: progress stream ended after $seen outcomes without a done frame" >&2
    exit 1
}); then
    exit 1
fi
if [ "$seen" != 5 ]; then
    echo "service smoke: progress sweep finished after $seen outcome frames, want 5" >&2
    exit 1
fi
info=$(fetch_job)
case "$info" in
*'"state":"done"'*'"points_done":5'* | *'"points_done":5'*'"state":"done"'*) ;;
*)
    echo "service smoke: finished progress sweep reports $info, want state done with 5 points" >&2
    exit 1
    ;;
esac

echo "service smoke ok (byte-identical local/remote figure1 + reactive hotsim + warm daemon restart: 0 builds, 0 decodes + tenants: 401/429/per-tenant stats + observability: /metrics histograms, exact per-tenant counters, advancing points_done)"
