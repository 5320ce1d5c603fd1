#!/usr/bin/env bash
# Parent-vs-change identity of every simulated result, seed by seed.
#
#   devtools/seed-sweep.sh <parent-ref> <first-seed> <last-seed>
#
# Builds the benchmark of <parent-ref> and of the working tree (tracked and
# untracked, not ignored, files) into separate target directories, as
# bench-pairs.sh does (devtools/build-sides.sh), then runs every workload of
# BENCHMARK.json untraced with `--reps 1` at each seed in first..last on both
# sides. It reads each run's result file
# (benchmark/results/<workload>.run.json) and exits non-zero if a run fails
# or if the two sides differ in `input_digest`, `digest`,
# `attempted_per_pass`, `failed_per_pass`, `counts` or any `end_to_end` or
# `per_layer` value on the simulated clock. Which values are on the host
# clock (wall time, setup time, peak RSS, the `serving.wall.*` shares, ...)
# is read from the benchmark's metric catalogue
# (benchmark/src/metrics.rs, entries with `Wall`); those are not compared,
# every other value must be equal. One line per seed and workload says
# `same` or what differs.
#
# Environment: SWEEP_DIR (work directory, default a fresh temporary one; it
# holds both checkouts, both target directories and every run's result file
# as <side>-<workload>-<seed>.run.json).
set -euo pipefail

if [ $# -ne 3 ]; then
    echo "usage: $0 <parent-ref> <first-seed> <last-seed>" >&2
    exit 2
fi
parent_ref=$1 first=$2 last=$3
root=$(git rev-parse --show-toplevel)
work=${SWEEP_DIR:-$(mktemp -d)}
workloads=$(python3 -c 'import json, sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")
echo "work directory: $work"

. "$root/devtools/build-sides.sh"
build_sides "$root" "$work" "$parent_ref"

failed=0
for seed in $(seq "$first" "$last"); do
    for workload in $workloads; do
        for side in parent change; do
            if ! (cd "$work/run-$side" && "$work/target-$side/release/recssd-benchmark" \
                --workload "$workload" --seed "$seed" --reps 1 --trace 0 >"$work/$side-$workload-$seed.out"); then
                echo "FAIL: $side $workload seed $seed exited non-zero (see $work/$side-$workload-$seed.out)"
                failed=1
            fi
            cp "$work/run-$side/benchmark/results/$workload.run.json" "$work/$side-$workload-$seed.run.json"
        done
        python3 - "$work/parent-$workload-$seed.run.json" "$work/change-$workload-$seed.run.json" \
            "$workload" "$seed" "$work/change/benchmark/src/metrics.rs" <<'EOF' || failed=1
import json, re, sys

parent, change = (json.load(open(p)) for p in sys.argv[1:3])
label = f"{sys.argv[3]} seed {sys.argv[4]}"
catalogue = open(sys.argv[5]).read()
# Host-clock metrics: `EndToEnd { name: "...", ..., clock: Wall }` and
# per-layer `("name", "unit", Better, Wall)`. Anything not found here is
# compared exactly, so a catalogue this misreads shows as a difference.
wall = set(re.findall(r'name: "([^"]+)",[^}]*?clock: Wall', catalogue))
wall |= set(re.findall(r'\("([^"]+)", "[^"]*", (?:Higher|Lower), Wall\)', catalogue))
if not wall:
    sys.exit(f"FAIL: {label}: no host-clock metric found in {sys.argv[5]}")


def simulated(run):
    keys = ("input_digest", "digest", "attempted_per_pass", "failed_per_pass", "counts")
    picked = {k: run.get(k) for k in keys}
    for group in ("end_to_end", "per_layer"):
        picked.update({f"{group}.{k}": v for k, v in run[group].items() if k not in wall})
    return picked


p, c = simulated(parent), simulated(change)
diff = [f"{k}: {p.get(k)} -> {c.get(k)}" for k in sorted(set(p) | set(c)) if p.get(k) != c.get(k)]
if diff:
    print(f"DIFF: {label}: " + "; ".join(diff))
    sys.exit(1)
print(f"same: {label} (digest {c['digest']}, failed_per_pass {c['failed_per_pass']})")
EOF
    done
done
exit $failed
