#!/usr/bin/env bash
# Checks the benchmark against itself, on one commit:
#
#   benchmark/selfcheck.sh
#       runs the whole benchmark twice with the same seed and once with a
#       second seed. Fails if a metric of BENCHMARK.json differs between
#       the two same-seed runs by more than its bound, if a count marked
#       exact differs at all, if any answer or gate failed, if the second
#       seed loses a metric name, or if a metric the two runs agree on is
#       worse than baseline.json says by more than its bound. A further
#       end-to-end timing on which the two runs disagree by more than its
#       bound prints "unresolved": two runs cannot tell a change from the
#       neighbours. Writes what the first run measured to
#       out/selfcheck/same_seed.json.
#   benchmark/selfcheck.sh --spread [RUNS]
#       the acceptance protocol of the benchmark's contract: RUNS (default
#       10) runs per workload, each with another seed, twice over. Prints
#       for every end-to-end metric the distance between the quartiles as
#       a share of the median, and how the second median compares with the
#       first; writes the table to out/selfcheck/spread.json. Fails as the
#       contract does: a spread (but setup_s's) or a worsening above the
#       bound. A spread above a third of the bound prints "unresolved"; so
#       does a further end-to-end metric whose spread is above its bound.
#
# baseline.json is {"about", "same_seed": same_seed.json,
# "ten_seeds_twice": spread.json} of the commit that defined the benchmark.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mode=same-seed
runs=10
if [ "${1:-}" = "--spread" ]; then
    mode=spread
    runs="${2:-10}"
fi
out=benchmark/out/selfcheck
rm -rf "$out"
mkdir -p "$out"

exec python3 - "$mode" "$runs" "$out" <<'PY'
import json, statistics, subprocess, sys

mode, runs, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
contract = json.load(open("BENCHMARK.json"))
seconds = str(contract["run_seconds"])
workloads = [w["name"] for w in contract["workloads"]]
# The bounds of BENCHMARK.json, and those of the end-to-end metrics that
# cannot be in a result line (README.md, "Further end-to-end metrics").
# `storage.sim_io_ms` is `plan_sim_io_ms_per_query` as the traced run takes
# it, which `wire_point` can report in no other way.
contracted = {m["name"]: m for m in contract["end_to_end"]}
further = {name: {"better": "lower", "bound": bound} for name, bound in {
    "query_p99_us": 0.25, "failed_ops_ratio": 0.0, "plan_sim_io_ms_per_query": 0.01,
    "mutation_p50_us": 0.15, "recover_s": 0.20, "wal_bytes_per_mutation": 0.01,
    "storage.sim_io_ms": 0.01,
}.items()}
bounds = {**contracted, **further}
exact = set()  # names of the counts that must repeat bit for bit
environment = {}  # of the last run


def run(workload, seed, trace):
    """One run; returns {metric: value} of everything its record holds."""
    done = subprocess.run(
        ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace), "--out", out],
        stdout=subprocess.PIPE, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}: exit {done.returncode}, "
                 f"{result['failed']} of {result['attempted']} operations failed")
    detail = json.load(open(f"{out}/{workload}-trace{trace}.json"))
    for gate in detail["gates"]:
        if not gate["passed"]:
            sys.exit(f"FAIL {workload} seed {seed}: gate {gate['name']}: {gate['value']:.4f} "
                     f"outside {gate['min']}..{gate['max']}")
    measured = {**detail["metrics"], **detail["further_end_to_end"]}
    assert measured.keys() >= result["metrics"].keys()
    exact.update(name for name, m in measured.items() if m["exact"])
    environment.update(detail["environment"])
    return {name: m["value"] for name, m in measured.items()}


def worse_by(name, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == second:
        return 0.0
    change = (second - first) / first if first else float("inf")
    return -change if bounds[name]["better"] == "higher" else change


def whole_benchmark(seed):
    return {w: {t: run(w, seed, t) for t in (0, 1)} for w in workloads}


def same_seed():
    seed = 0x00DB1993
    a, b = whole_benchmark(seed), whole_benchmark(seed)
    json.dump({"seed": seed, "seconds": int(seconds), "environment": environment, "runs": a},
              open(f"{out}/same_seed.json", "w"), indent=1)
    try:
        baseline = json.load(open("benchmark/baseline.json"))["same_seed"]["runs"]
    except (OSError, KeyError):
        baseline = None
    failures = 0
    for w in workloads:
        for t in (0, 1):
            for name in sorted(a[w][t].keys() & bounds.keys(), key=list(bounds).index):
                bound = bounds[name]["bound"]
                first, second = a[w][t][name], b[w][t][name]
                diff = abs(worse_by(name, first, second))
                if diff <= bound:
                    verdict = "ok"
                else:
                    verdict = "FAIL" if name in contracted or name in exact else "unresolved"
                line = (f"{w:14} {name:24} {first:14.4f} {second:14.4f} "
                        f"differ {diff:6.1%} (bound {bound:.0%})")
                if baseline and verdict == "ok":
                    was = baseline[w][str(t)][name]
                    since = min(worse_by(name, was, first), worse_by(name, was, second))
                    line += f"  baseline {was:14.4f} worse by {since:+6.1%}"
                    if since > bound:
                        verdict = "FAIL"
                failures += verdict == "FAIL"
                print(f"{verdict:4} {line}")
            if t == 1:
                moved = [n for n in sorted(exact) if a[w][0].get(n) != b[w][0].get(n)
                         or a[w][1].get(n) != b[w][1].get(n)]
                for n in moved:
                    print(f"FAIL {w:14} {n:24} exact count differs between the runs")
                failures += len(moved)
                print(f"{'ok' if not moved else 'FAIL':4} {w:14} {len(exact) - len(moved)} of "
                      f"{len(exact)} exact counts identical; every gate holds")
    other = whole_benchmark(7)
    for w in workloads:
        for t in (0, 1):
            if other[w][t].keys() != a[w][t].keys():
                failures += 1
                print(f"FAIL {w} trace {t}: seed 7 reports other metric names")
    print(f"ok   seed 7: same {sum(len(other[w][t]) for w in workloads for t in (0, 1))} "
          f"metric names, every answer and gate holds")
    sys.exit(1 if failures else 0)


def spread():
    failures, table = 0, []
    for w in workloads:
        sets = [[run(w, 100 * s + i, 0) for i in range(1, runs + 1)] for s in (1, 2)]
        # An exact count answers to its seed: its spread over seeds says nothing.
        for name in sorted(sets[0][0].keys() & bounds.keys() - exact, key=list(bounds).index):
            bound = bounds[name]["bound"]
            medians, spreads = [], []
            for results in sets:
                values = [r[name] for r in results]
                q1, _, q3 = statistics.quantiles(values, n=4)
                medians.append(statistics.median(values))
                spreads.append((q3 - q1) / medians[-1] if medians[-1] else 0.0)
            shift = worse_by(name, medians[0], medians[1])
            if name in further and max(spreads) > bound:
                verdict = "unresolved"
            elif name != "setup_s" and max(spreads) > bound or shift > bound:
                verdict = "FAIL"
            elif name != "setup_s" and max(spreads) > bound / 3:
                verdict = "unresolved"
            else:
                verdict = "ok"
            failures += verdict == "FAIL"
            table.append({"workload": w, "metric": name, "medians": medians,
                          "second_worse_by": shift, "spreads": spreads, "bound": bound,
                          "verdict": verdict})
            print(f"{verdict:10} {w:14} {name:24} median {medians[0]:12.4f} {medians[1]:12.4f} "
                  f"second worse by {shift:+6.1%}  spread {spreads[0]:5.1%} {spreads[1]:5.1%} "
                  f"(bound {bound:.0%})", flush=True)
    json.dump({"runs_per_set": runs, "seconds": int(seconds), "table": table},
              open(f"{out}/spread.json", "w"), indent=1)
    sys.exit(1 if failures else 0)


same_seed() if mode == "same-seed" else spread()
PY
