#!/usr/bin/env bash
# Non-test lines per crate, the figure CHANGES.md and ROADMAP.md quote:
# every crates/*/src/**/*.rs not named tests.rs, counted up to (not
# including) its first `#[cfg(test)]` line.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
    n=$(find "$crate/src" -name '*.rs' ! -name tests.rs -print0 |
        xargs -0 awk 'FNR == 1 { counting = 1 } /^#\[cfg\(test\)\]/ { counting = 0 } counting { n++ } END { print n + 0 }')
    printf '%-14s %6d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-14s %6d\n' total "$total"
