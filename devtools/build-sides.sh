# Sourced by bench-pairs.sh and seed-sweep.sh: the two sides they compare.
#
#   build_sides <root> <work> <parent-ref>
#
# Checks out <parent-ref> of the repository at <root> into <work>/parent and
# the working tree (tracked and untracked, not ignored, files) into
# <work>/change, builds each side's benchmark into its own target directory
# (<work>/target-<side>) and makes an empty run directory (<work>/run-<side>)
# for each side to run in.
build_sides() {
    local root=$1 work=$2 parent_ref=$3 side
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
}
