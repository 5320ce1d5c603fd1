#!/usr/bin/env bash
# Parent-vs-change pairs on one benchmark workload.
#
#   devtools/bench-pairs.sh <parent-ref> <workload> <pairs> <seed>
#
# Builds the benchmark of <parent-ref> and of the working tree (tracked and
# untracked, not ignored, files) into separate target directories, then runs
# <pairs> pairs of untraced runs, alternating which side runs first. For every
# end-to-end metric of BENCHMARK.json it prints each side's median and
# quartiles and how many pairs the change won. It exits non-zero if a run
# fails or if any `sim_*` value differs between any two runs.
#
# Environment: BENCH_SECONDS (run length, default BENCHMARK.json's
# run_seconds), BENCH_PAIRS_DIR (work directory, default a fresh temporary
# one; it holds both checkouts, both target directories and every run's
# result line).
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

rm -rf "$work/parent" "$work/change"
mkdir -p "$work/parent" "$work/change"
git -C "$root" archive "$parent_ref" | tar -x -C "$work/parent"
(cd "$root" && git ls-files -co --exclude-standard -z | xargs -0 tar -cf - --no-recursion) |
    tar -x -C "$work/change"

for side in parent change; do
    echo "building $side"
    CARGO_TARGET_DIR="$work/target-$side" cargo build --release --quiet --offline \
        --manifest-path "$work/$side/benchmark/Cargo.toml"
    mkdir -p "$work/run-$side"
done

run() { # <side> <pair>
    local out="$work/$1-$2.json"
    (cd "$work/run-$1" && "$work/target-$1/release/recssd-benchmark" --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0) | tail -n 1 >"$out"
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
runs = {
    side: [json.load(open(f"{work}/{side}-{i}.json")) for i in range(1, pairs + 1)]
    for side in ("parent", "change")
}
bad = [f"{s} pair {i + 1}" for s, rs in runs.items() for i, r in enumerate(rs) if not r["correct"]]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


print(f"{'metric':<20} {'parent median [q1..q3]':>36} {'change median [q1..q3]':>36} {'ratio':>7} wins")
for m in spec["end_to_end"]:
    name, higher = m["name"], m["better"] == "higher"
    val = {s: [r["metrics"][name]["value"] for r in rs] for s, rs in runs.items()}
    if name.startswith("sim_") and len(set(val["parent"] + val["change"])) > 1:
        bad.append(f"{name} differs: {val}")
    wins = sum((c > p) if higher else (c < p) for p, c in zip(val["parent"], val["change"]))
    cells = []
    for s in ("parent", "change"):
        q1, q3 = quartiles(val[s])
        cells.append(f"{statistics.median(val[s]):.6g} [{q1:.6g}..{q3:.6g}]")
    pm = statistics.median(val["parent"])
    ratio = statistics.median(val["change"]) / pm if pm else float("nan")
    print(f"{name:<20} {cells[0]:>36} {cells[1]:>36} {ratio:>7.3f} {wins}/{pairs}")
for b in bad:
    print("FAIL:", b)
sys.exit(1 if bad else 0)
EOF
