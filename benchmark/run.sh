#!/usr/bin/env bash
# Builds the benchmark (release, offline) when its binary is missing or
# older than any source it is built from, then runs it with the given
# arguments from the repository root:
#
#   benchmark/run.sh --workload warm_replay --seed 7 --seconds 10 --trace 0
#       one workload; the last line of standard output is the result object
#   benchmark/run.sh [--seed N] [--seconds S]
#       every workload, tracing off and on; prints `workload metric value
#       unit` lines, writes benchmark/out/result.json
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
bin="$target/release/oodb-benchmark"
# Cargo alone would decide this, but outside a git checkout one crate's
# build script (it bakes in the commit hash) reruns on every invocation
# and relinks everything above it, seconds per run.
if [ ! -x "$bin" ] || [ -n "$(find benchmark/Cargo.toml benchmark/src Cargo.toml src crates third_party \
        -newer "$bin" -type f -print -quit)" ]; then
    CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml >&2
fi

exec "$bin" "$@"
