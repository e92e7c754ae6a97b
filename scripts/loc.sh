#!/usr/bin/env bash
# Non-test lines per crate, the figure CHANGES.md and ROADMAP.md quote:
# every crates/*/src/**/*.rs not named tests.rs, counted up to (not
# including) its first `#[cfg(test)]` line. Then the five largest such
# files, so the next monolith shows in every run.
set -euo pipefail
cd "$(dirname "$0")/.."

# "<non-test lines> <file>" for every source file under the given dirs.
per_file() {
    find "$@" -name '*.rs' ! -name tests.rs -print0 |
        xargs -0 awk 'FNR == 1 { if (file) print n, file; file = FILENAME; n = 0; counting = 1 }
            /^#\[cfg\(test\)\]/ { counting = 0 } counting { n++ } END { print n, file }'
}

total=0
for crate in crates/*/; do
    n=$(per_file "$crate/src" | awk '{ n += $1 } END { print n + 0 }')
    printf '%-14s %6d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-14s %6d\n' total "$total"
echo "largest files:"
per_file crates/*/src | sort -rn | head -5 | awk '{ printf "%6d %s\n", $1, $2 }'
