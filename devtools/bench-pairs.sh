#!/usr/bin/env bash
# Parent-vs-change pairs on one benchmark workload.
#
#   devtools/bench-pairs.sh <parent-ref> <workload> <pairs> <seed>
#
# Builds the benchmark of <parent-ref> and of the working tree (tracked and
# untracked, not ignored, files) into separate target directories, then runs
# <pairs> pairs of untraced runs, alternating which side runs first. For every
# end-to-end metric of BENCHMARK.json it prints each side's median and
# quartiles, the ratio of the medians, the median of the per-pair ratios
# (change / parent), the parent's interquartile range, whether the medians lie
# further apart than that range, how many pairs the change won, and how much
# worse the change's median is than the parent's, relative to the parent's and
# in the direction of the metric's `better` field (negative: better). Below
# them, an informational `attempted_per_cpu_s` row (higher is better): each
# run's attempted operations over the CPU seconds (user + sys) it used, which
# a busy shared machine disturbs less than wall time. That row never fails the
# script. It exits
# non-zero if a run fails, if a median is worse by more than the metric's
# `bound` (a `WORSE:` line), if any `sim_*` value differs between any two runs,
# or if the `digest` or `input_digest` of any two runs differ (read from the
# result file each run writes, benchmark/results/<workload>.run.json, which is
# kept per run in the work directory).
#
# Environment: BENCH_SECONDS (run length, default BENCHMARK.json's
# run_seconds), BENCH_PAIRS_DIR (work directory, default a fresh temporary
# one; it holds both checkouts, both target directories and every run's
# result line and result file).
set -euo pipefail

if [ $# -ne 4 ]; then
    echo "usage: $0 <parent-ref> <workload> <pairs> <seed>" >&2
    exit 2
fi
parent_ref=$1 workload=$2 pairs=$3 seed=$4
root=$(git rev-parse --show-toplevel)
work=${BENCH_PAIRS_DIR:-$(mktemp -d)}
seconds=${BENCH_SECONDS:-$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")}
echo "work directory: $work"

. "$root/devtools/build-sides.sh"
build_sides "$root" "$work" "$parent_ref"

cpu_run() { # <cpu-file> <command...>: runs the command, writes the CPU seconds it used
    python3 -c '
import resource, subprocess, sys
before = resource.getrusage(resource.RUSAGE_CHILDREN)
code = subprocess.call(sys.argv[2:])
after = resource.getrusage(resource.RUSAGE_CHILDREN)
cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
open(sys.argv[1], "w").write(f"{cpu}\n")
sys.exit(code)' "$@"
}

run() { # <side> <pair>
    local out="$work/$1-$2.json"
    (cd "$work/run-$1" && cpu_run "$work/$1-$2.cpu" "$work/target-$1/release/recssd-benchmark" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) | tail -n 1 >"$out"
    cp "$work/run-$1/benchmark/results/$workload.run.json" "$work/$1-$2.run.json"
    echo "pair $2 $1 done"
}
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$i"
        run change "$i"
    else
        run change "$i"
        run parent "$i"
    fi
done

python3 - "$root/BENCHMARK.json" "$work" "$pairs" <<'EOF'
import json, statistics, sys

spec, work, pairs = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3])
sides = ("parent", "change")
runs = {s: [json.load(open(f"{work}/{s}-{i}.json")) for i in range(1, pairs + 1)] for s in sides}
files = {s: [json.load(open(f"{work}/{s}-{i}.run.json")) for i in range(1, pairs + 1)] for s in sides}
bad = [f"{s} pair {i + 1}" for s, rs in runs.items() for i, r in enumerate(rs) if not r["correct"]]
for key in ("digest", "input_digest"):
    seen = {f"{s} pair {i + 1}": f[key] for s in sides for i, f in enumerate(files[s])}
    if len(set(seen.values())) > 1:
        bad.append(f"{key} differs: {seen}")


def worsening(p, c, higher):
    """Relative worsening of the change's median c over the parent's p."""
    if p == c:
        return 0.0
    if p == 0:
        return float("inf") if (c < p if higher else c > p) else float("-inf")
    return (p - c) / abs(p) if higher else (c - p) / abs(p)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def row(name, val, higher):
    """Prints one metric's row; returns both medians and the change's worsening."""
    wins = sum((c > p) if higher else (c < p) for p, c in zip(val["parent"], val["change"]))
    cells = []
    for s in sides:
        q1, q3 = quartiles(val[s])
        cells.append(f"{statistics.median(val[s]):.6g} [{q1:.6g}..{q3:.6g}]")
    pm, cm = statistics.median(val["parent"]), statistics.median(val["change"])
    ratio = cm / pm if pm else float("nan")
    per_pair = [c / p if p else float("nan") for p, c in zip(val["parent"], val["change"])]
    q1, q3 = quartiles(val["parent"])
    apart = "yes" if abs(cm - pm) > q3 - q1 else "no"
    w = worsening(pm, cm, higher)
    print(
        f"{name:<20} {cells[0]:>36} {cells[1]:>36} {ratio:>7.3f} "
        f"{statistics.median(per_pair):>7.3f} {q3 - q1:>10.4g} {apart:>5} "
        f"{f'{wins}/{pairs}':>5} {w:>+7.3f}"
    )
    return pm, cm, w


print(
    f"{'metric':<20} {'parent median [q1..q3]':>36} {'change median [q1..q3]':>36} "
    f"{'ratio':>7} {'pair':>7} {'p-IQR':>10} {'apart':>5} {'wins':>5} {'worse':>7}"
)
worse = []
for m in spec["end_to_end"]:
    name, higher = m["name"], m["better"] == "higher"
    val = {s: [r["metrics"][name]["value"] for r in rs] for s, rs in runs.items()}
    if name.startswith("sim_") and len(set(val["parent"] + val["change"])) > 1:
        bad.append(f"{name} differs: {val}")
    pm, cm, w = row(name, val, higher)
    if w > m["bound"]:
        worse.append(f"{name} median {cm:.6g} vs parent {pm:.6g}: {w:+.3%} past its bound {m['bound']:.3%}")
# Informational only: attempted operations per CPU second (user + sys).
cpu = {s: [float(open(f"{work}/{s}-{i}.cpu").read()) for i in range(1, pairs + 1)] for s in sides}
row(
    "attempted_per_cpu_s",
    {s: [r["attempted"] / c if c else float("nan") for r, c in zip(runs[s], cpu[s])] for s in sides},
    True,
)
for b in bad:
    print("FAIL:", b)
for w in worse:
    print("WORSE:", w)
sys.exit(1 if bad or worse else 0)
EOF
