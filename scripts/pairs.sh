#!/usr/bin/env bash
# Alternating parent/change pairs of the repo's benchmark — the evidence
# ROADMAP.md asks of every speed claim:
#
#   scripts/pairs.sh <workload> <parent-ref> [pairs=10]
#
# The parent commit is unpacked (git archive) under ${TMPDIR:-/tmp} and
# builds into a benchmark/target of its own; the change is this working
# tree. Pair i runs `benchmark/run.sh --workload <workload> --seed 11+i
# --seconds 20 --trace 0` on both sides, the parent first on even pairs and
# the change first on odd ones. Prints every run, then per end-to-end
# metric each side's quartiles and median, the medians' distance, and the
# pairs each side won (a tie counts for neither). Last, one `--trace 1` run
# per side and every gate of benchmark/src/derive.rs it failed: the
# benchmark reports a failed gate but never exits on one, so this is where
# a PR sees it. Then the exact counters of those two runs side by side —
# what the engine did, not how fast — and `counters: identical` or the
# names that differ: a change that only claims speed must not move one.
# Among them `core.cache_hit_ratio`, `wal.replayed_records` and
# `wal.bytes_per_mutation`, so a change that moves the plan cache or the
# log on purpose shows that move beside what stayed put. Before them,
# fifteen timings of the same two runs, parent beside change and not judged
# (one run a side): `zql.simplify_us`, `core.optimize_us` and
# `core.cache_insert_us` (the layers of a cache miss), `service.submit_us`
# (the query in-process), `exec.execute_us` (the benchmark's shadow run
# of the plan) and `service.self_us` (the request less the shadow's
# layers: rendering and ordering the rows land here), `server.rtt_us`,
# `server.transport_us`, `server.http_read_us`, `server.json_decode_us`,
# `server.json_encode_us`, `server.http_write_us` (the wire around it) and
# `service.refresh_us`, `wal.checkpoint_ms`, `wal.recover_ms` (the
# durability path), so a saving
# shows in which layer, and on which side of the socket, it sits, and
# `server.response_bytes`, the mean bytes of an answer, so a codec change
# shows its bytes beside the parent's. That one is close but not exact:
# an answer carries its stage timings in nanoseconds, and their digit
# count differs from run to run, so two runs of one commit differ too.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
    echo "usage: scripts/pairs.sh <workload> <parent-ref> [pairs=10]" >&2
    exit 2
fi
workload=$1
sha=$(git rev-parse --verify "$2^{commit}")
pairs=${3:-10}

parent="${TMPDIR:-/tmp}/oodb-pairs/$sha"
if [ ! -d "$parent" ]; then
    mkdir -p "$parent"
    git archive "$sha" | tar -x -C "$parent"
fi
change=$PWD

# name:better, as BENCHMARK.json declares them.
metrics="throughput_ops_s:higher query_p50_us:lower cpu_us_per_op:lower peak_rss_mb:lower setup_s:lower"
runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

# One run of `side` (parent|change, each also the variable naming its
# directory) at `seed`: appends "seed side metric
# value" lines to $runs. A run that failed operations or checked wrong
# answers ends the comparison.
run() {
    local side=$1 seed=$2 json
    json=$(bash "${!side}/benchmark/run.sh" --workload "$workload" --seed "$seed" \
        --seconds 20 --trace 0 | tail -n 1)
    case "$json" in
    *'"correct": true'*'"failed": 0,'*) ;;
    *)
        echo "pairs.sh: $side at seed $seed did not finish clean: $json" >&2
        exit 1
        ;;
    esac
    for m in $metrics; do
        m=${m%%:*}
        echo "$seed $side $m $(sed 's/.*"'"$m"'": {"value": \([-0-9.eE+]*\).*/\1/' <<<"$json")"
    done >>"$runs"
    echo "seed $seed $side: $(awk -v s="$seed" -v d="$side" \
        '$1 == s && $2 == d { printf "%s %s  ", $3, $4 }' "$runs")"
}

# Build both sides before anything is timed.
for dir in "$parent" "$change"; do
    bash "$dir/benchmark/run.sh" --workload "$workload" --seconds 1 --trace 0 >/dev/null
done

for ((i = 0; i < pairs; i++)); do
    seed=$((11 + i))
    if ((i % 2 == 0)); then
        run parent "$seed"
        run change "$seed"
    else
        run change "$seed"
        run parent "$seed"
    fi
done

echo
echo "$workload, $pairs pairs against ${sha:0:7}, $(nproc) cpus: q1 / median / q3"
for m in $metrics; do
    awk -v metric="${m%%:*}" -v better="${m##*:}" '
        function sort(v, n,    i, j, x) {
            for (i = 2; i <= n; i++) {
                x = v[i]
                for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
                v[j + 1] = x
            }
        }
        # Quartiles by linear interpolation between order statistics.
        function quantile(v, n, q,    at, lo) {
            at = 1 + (n - 1) * q; lo = int(at)
            return lo >= n ? v[n] : v[lo] + (at - lo) * (v[lo + 1] - v[lo])
        }
        function summary(v, n) {
            return sprintf("%.4g / %.4g / %.4g", quantile(v, n, 0.25), quantile(v, n, 0.5), quantile(v, n, 0.75))
        }
        $3 == metric { by[$2, $1] = $4 + 0; seeds[$1] }
        END {
            for (s in seeds) {
                p[++n] = by["parent", s]; c[n] = by["change", s]
                d = (better == "higher") ? c[n] - p[n] : p[n] - c[n]
                if (d > 0) won++; else if (d < 0) lost++
            }
            sort(p, n); sort(c, n)
            pm = quantile(p, n, 0.5); cm = quantile(c, n, 0.5)
            printf "%-17s parent %-28s change %-28s %+.1f%%  parent IQR %.4g, medians %.4g apart  change won %d, parent won %d of %d\n",
                metric, summary(p, n), summary(c, n), 100 * (cm - pm) / pm,
                quantile(p, n, 0.75) - quantile(p, n, 0.25), (cm > pm ? cm - pm : pm - cm), won, lost, n
        }' "$runs"
done

echo
echo "failed gates, one --trace 1 run per side at seed 11:"
for side in parent change; do
    bash "${!side}/benchmark/run.sh" --workload "$workload" --seed 11 --seconds 20 --trace 1 >/dev/null 2>&1
    sed -n 's/^ *{"name": "\(.*\)", "value": \(.*\), "min": \(.*\), "max": \(.*\), "passed": false}.*/'"$side"': \1 = \2, allowed \3..\4/p' \
        "${!side}/benchmark/out/$workload-trace1.json" | grep . || echo "$side: none"
done

echo
echo "timings of those runs, parent / change (one run a side, not judged):"
awk '/^ *"(zql\.simplify_us|core\.(optimize_us|cache_insert_us)|exec\.execute_us|service\.(submit_us|self_us|refresh_us)|server\.(rtt_us|transport_us|http_read_us|json_decode_us|json_encode_us|http_write_us|response_bytes)|wal\.(checkpoint_ms|recover_ms))": / {
        name = $1; gsub(/[":]/, "", name); value = $3; sub(/,$/, "", value)
        if (FNR == NR) { parent[name] = value; next }
        printf "%-26s %s / %s\n", name, parent[name], value
    }' \
    "$parent/benchmark/out/$workload-trace1.json" "$change/benchmark/out/$workload-trace1.json"

echo
echo "exact counters of those runs, parent / change:"
awk '/^ *"(exec\.(preds|hash_ops|derefs|tuples_per_row|mem_peak_bytes)|storage\.(pages_read|sim_io_ms|buffer_hit_ratio)|volcano\.[a-z_]*|core\.cache_hit_ratio|wal\.(replayed_records|bytes_per_mutation))": / {
        name = $1; gsub(/[":]/, "", name); value = $3; sub(/,$/, "", value)
        if (FNR == NR) { parent[name] = value; next }
        printf "%-26s %s / %s\n", name, parent[name], value
        if (parent[name] != value) differ = differ " " name
    }
    END { print (differ == "" ? "counters: identical" : "counters differ:" differ) }' \
    "$parent/benchmark/out/$workload-trace1.json" "$change/benchmark/out/$workload-trace1.json"
