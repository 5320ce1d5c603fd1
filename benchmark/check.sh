#!/usr/bin/env bash
# Runs every workload twice on the same commit and seed and checks that the
# two sets of runs agree: exactly on the simulated clock (every sim_* metric,
# count and digest), within the bounds on the host's.
#
#   benchmark/check.sh [seed]        (from the root of the repository)
set -euo pipefail
seed="${1:-42}"
run() { cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- "$@"; }
for set in a b; do
    run all --seed "$seed" --traced
    cp benchmark/results/latest.json "benchmark/results/check-$set.json"
done
run compare benchmark/results/check-a.json benchmark/results/check-b.json
