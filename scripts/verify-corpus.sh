#!/usr/bin/env bash
# Replays the paper corpus (Queries 1-4) through `EXPLAIN VERIFY` with
# search-space verification enabled, and fails if the static analyzer
# reports a single diagnostic. CI runs this as the end-to-end gate on the
# oodb-verify subsystem; it is also handy after editing a rule.
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${SCALE:-100}"

queries=$(cat <<'EOF'
\verify search on
EXPLAIN VERIFY SELECT Newobject(e.name(), e.job().name(), e.dept().name()) FROM Employee e IN Employees WHERE e.dept().plant().location() == "Dallas";
EXPLAIN VERIFY SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe";
EXPLAIN VERIFY SELECT Newobject(c.mayor().age(), c.name()) FROM City c IN Cities WHERE c.mayor().name() == "Joe";
EXPLAIN VERIFY SELECT t FROM Task t IN Tasks WHERE t.time() == 100 && EXISTS (SELECT m FROM m IN t.team_members() WHERE m.name() == "Fred");
\q
EOF
)

echo "==> replaying Q1-Q4 through EXPLAIN VERIFY (scale 1/${SCALE})"
out=$(printf '%s\n' "$queries" | cargo run --release -q -p oodb-cli -- --scale "$SCALE")
printf '%s\n' "$out"

# The shell reports findings as `verify: N diagnostic(s)` after one
# `  [check] at PATH (OP)` / expected / got triple per diagnostic.
if printf '%s\n' "$out" | grep -Eq "verify: [0-9]+ diagnostic"; then
    echo "FAIL: the static analyzer reported diagnostics on the paper corpus:" >&2
    printf '%s\n' "$out" | grep -E -A2 '^(oodb> )?  \[' >&2 || true
    exit 1
fi

ok_count=$(printf '%s\n' "$out" | grep -c "verify: OK" || true)
if [ "$ok_count" -ne 4 ]; then
    echo "FAIL: expected 4 'verify: OK' reports, saw ${ok_count}" >&2
    exit 1
fi

echo "OK: 4/4 corpus queries verified clean (winning plan + memo)"
