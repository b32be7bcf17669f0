#!/bin/bash
# Fail fast on script bugs, and report a nonzero exit when any bench
# fails so CI can gate on this script instead of eyeballing logs.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
# Fan batch simulation / fold training / holdout evaluation out over
# all cores unless the caller pinned a thread count.
export DSE_THREADS="${DSE_THREADS:-$(nproc)}"
# Arm the dse::obs metrics layer so curve headers record the
# simulation-cache story (sim.executed / sim.memo_hits). Callers can
# pin DSE_METRICS=0 for an instrumentation-free timing run.
export DSE_METRICS="${DSE_METRICS:-1}"
echo "DSE_THREADS=$DSE_THREADS DSE_METRICS=$DSE_METRICS"
# Google-Benchmark binaries also emit machine-readable JSON next to
# this script (BENCH_<name>.json) so perf changes can be diffed against
# the committed baselines (e.g. BENCH_ann.json for micro_ann).
GBENCH_BINARIES="micro_ann micro_sim micro_explore micro_remote fig_5_8_training_times"

# Gate a freshly written BENCH_<name>.json before it can replace the
# committed baseline: it must parse as JSON and contain a non-empty
# "benchmarks" array. A crashed or timed-out bench otherwise leaves a
# truncated file that silently poisons every later perf diff.
check_bench_json() {
    local f="$1"
    if command -v python3 >/dev/null 2>&1; then
        python3 - "$f" <<'EOF'
import json, sys
try:
    with open(sys.argv[1]) as fh:
        doc = json.load(fh)
except (OSError, ValueError) as e:
    sys.exit(f"{sys.argv[1]}: not valid JSON: {e}")
benches = doc.get("benchmarks")
if not isinstance(benches, list) or not benches:
    sys.exit(f"{sys.argv[1]}: no benchmarks recorded")
EOF
    else
        # Fallback sanity check without python3: non-empty, contains a
        # benchmarks array, and ends with a closing brace (gbench JSON
        # is truncated mid-array when the process dies).
        [ -s "$f" ] && grep -q '"benchmarks"' "$f" &&
            [ "$(tail -c 2 "$f" | tr -d '[:space:]')" = "}" ]
    fi
}

failed=0
for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    echo "===================================================================="
    echo "== $b"
    echo "===================================================================="
    name=$(basename "$b")
    out=""
    extra=()
    case " $GBENCH_BINARIES " in
      *" $name "*)
        out="BENCH_${name#micro_}.json"
        # Write to a temp file first; only a validated run may replace
        # the committed baseline.
        extra=("--benchmark_out=$out.tmp" "--benchmark_out_format=json")
        ;;
    esac
    rc=0
    timeout 3000 "$b" "${extra[@]}" 2>/dev/null || rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "BENCH FAILED: $b (exit $rc)" >&2
        [ -n "$out" ] && rm -f "$out.tmp"
        failed=1
    elif [ -n "$out" ]; then
        if check_bench_json "$out.tmp"; then
            mv "$out.tmp" "$out"
            # Advisory regression diff against the committed baseline
            # (tools/bench_compare.py, same gate ctest runs
            # parse-only). Advisory because this host's load differs
            # from the baseline host's — a FAIL here means "look
            # before committing the refreshed numbers", not "the run
            # is broken".
            gate=()
            case "$out" in
              BENCH_ann.json)
                gate=(--bench 'BM_AnnTrainStep/.*'
                      --bench 'BM_TrainFolds/.*'
                      --bench 'BM_EnsemblePredictSpace')
                ;;
              BENCH_explore.json)
                gate=(--bench 'BM_MemberSpreadBatched/.*'
                      --bench 'BM_PickBatch/.*')
                ;;
              BENCH_sim.json)
                gate=(--bench 'BM_DetailedSimulation/.*'
                      --bench 'BM_SimPointEstimate/.*')
                ;;
              BENCH_remote.json)
                gate=(--bench 'BM_SimulateBatch.*RoundTrip/.*')
                ;;
            esac
            if [ "${#gate[@]}" -gt 0 ] &&
                command -v python3 >/dev/null 2>&1 &&
                git show "HEAD:$out" >"$out.base" 2>/dev/null; then
                python3 tools/bench_compare.py "$out.base" "$out" \
                    "${gate[@]}" ||
                    echo "ADVISORY: $out regressed vs HEAD baseline" >&2
                rm -f "$out.base"
            fi
        else
            echo "BENCH OUTPUT INVALID: $out.tmp (kept $out)" >&2
            rm -f "$out.tmp"
            failed=1
        fi
    fi
    echo
done
# Prediction-service throughput: start dse_serve on an ephemeral port
# with a small self-trained model, drive it with the closed-loop load
# generator, and archive the latency/throughput report the same way as
# the gbench JSON. The model quality is irrelevant here — the bench
# measures the wire + batching + predictBatch path.
echo "===================================================================="
echo "== serve (dse_serve + dse_loadgen)"
echo "===================================================================="
if [ -x build/tools/dse_serve ] && [ -x build/tools/dse_loadgen ]; then
    port_file=$(mktemp)
    rm -f "$port_file"
    build/tools/dse_serve --study=memory --app=gzip --train \
        --max-sims=120 --max-epochs=800 --port=0 \
        --port-file="$port_file" &
    serve_pid=$!
    # The port file appears once the socket is listening (training
    # happens first and dominates startup).
    for _ in $(seq 1 600); do
        [ -s "$port_file" ] && break
        kill -0 "$serve_pid" 2>/dev/null || break
        sleep 0.5
    done
    if [ -s "$port_file" ] &&
        timeout 600 build/tools/dse_loadgen --port-file="$port_file" \
            --connections=8 --requests=20000 --points=1 \
            --json=BENCH_serve.json.tmp &&
        check_bench_json BENCH_serve.json.tmp; then
        mv BENCH_serve.json.tmp BENCH_serve.json
    else
        echo "BENCH FAILED: serve" >&2
        rm -f BENCH_serve.json.tmp
        failed=1
    fi
    kill -TERM "$serve_pid" 2>/dev/null || true
    wait "$serve_pid" 2>/dev/null || true
    rm -f "$port_file"
else
    echo "serve tools not built; skipping" >&2
fi
echo

if [ "$failed" -ne 0 ]; then
    echo "one or more benches failed" >&2
    exit 1
fi
