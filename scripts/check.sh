#!/usr/bin/env bash
# Repo-wide gate: formatting, lints, tests. CI and pre-commit both run this.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test -q --workspace

# Intra-doc links of first-party crates (default members, so the vendored
# third_party/ stand-ins are not documented): a moved or deleted item
# must not leave a dangling link behind.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

# The workspace run above already holds the chaos replay at its fixed
# seed (tests/resilience.rs), the concurrency proof (tests/scaling.rs),
# the serving, durability and feedback gates, the executor golden file
# and the batch-edge suite (tests/exec_golden.rs, tests/exec_pipeline.rs).
# Only the legs that change an input run again; CI's own jobs add
# randomized seeds and release builds on top.

# Memory-governance smoke on its own: the pressure x faults replay,
# saturation shedding, and the circuit breaker.
echo "==> tight-memory smoke (pressure + shedding + breaker)"
cargo test -q --test resilience memory

# Plan-space audit in quick mode (CI's `audit` job runs the same corpus):
# a smaller store and tighter enumeration limits than the run above. It
# also gates estimated vs observed cost: no plan runs over 2x cheaper
# than the winner.
echo "==> plan-space audit (enumeration oracle + observed cost, quick corpus)"
OODB_AUDIT_QUICK=1 cargo test -q --test audit

# The benchmark is its own workspace, so nothing above compiles it: a
# facade or oodb-exec API change that breaks it must fail here, not in
# the perf pipeline.
echo "==> benchmark package builds against this tree"
cargo build --release --manifest-path benchmark/Cargo.toml

# A dependency no source file of its crate names is a stale manifest line.
# The root package (the facade) is checked against src/, tests/ and
# examples/; its [workspace.dependencies] table is not a dependency list.
echo "==> every declared dependency is named by its crate"
for manifest in Cargo.toml crates/*/Cargo.toml; do
    crate=$(dirname "$manifest")
    for dep in $(awk '/^\[/ { deps = /^\[(dev-)?dependencies\]/ } deps && /^[a-z]/ { sub(/[ .=].*/, ""); print }' "$manifest"); do
        grep -rqsw "${dep//-/_}" "$crate/src" "$crate/tests" "$crate/examples" ||
            { echo "$manifest: $dep is named by no source file"; unused=1; }
    done
done
[ -z "${unused:-}" ]

# Panic-site ratchet (ROADMAP item 2): non-test `panic!` / `.unwrap()` /
# `.expect(` / `unreachable!` lines of crates/*/src outside crates/bench,
# counted the way scripts/loc.sh counts lines (up to a file's first
# `#[cfg(test)]`, comment lines aside). The number only goes down: lower
# it here when a PR removes a site.
panic_sites=74
echo "==> panic sites do not rise above $panic_sites"
found=$(find crates/*/src -name '*.rs' ! -name tests.rs ! -path 'crates/bench/*' -print0 |
    xargs -0 awk 'FNR == 1 { counting = 1 } /^#\[cfg\(test\)\]/ { counting = 0 }
        counting && !/^ *\/\// && /panic!|\.unwrap\(\)|\.expect\(|unreachable!/ { n++ } END { print n + 0 }')
[ "$found" -le "$panic_sites" ] || { echo "$found panic sites, $panic_sites recorded"; exit 1; }

# Supply-chain lint: advisories, duplicate versions, license allow-list.
# cargo-deny is an external binary; skip gracefully where it is not
# installed (the offline build container) rather than failing the gate.
if command -v cargo-deny >/dev/null 2>&1; then
    echo "==> cargo deny check"
    cargo deny check
else
    echo "==> cargo deny check (skipped: cargo-deny not installed)"
fi

# The golden files (executor runs, search fingerprint) are rewritten only
# on purpose: a stray OODB_GOLDEN_BLESS=1 in the runs above must not ride
# in with an engine change.
echo "==> golden files unchanged"
git diff --exit-code -- tests/golden

# Reported, not gated: the size figures CHANGES.md and ROADMAP.md quote.
echo "==> non-test lines per crate"
scripts/loc.sh

echo "OK"
