#!/usr/bin/env bash
# The repo benchmark's one command: build the benchmark package from
# source, then run it. Arguments go to the binary unchanged:
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
# Run it from anywhere; it writes only under benchmark/out and the cargo
# target directory ($CARGO_TARGET_DIR if set, else benchmark/target).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# A relative CARGO_TARGET_DIR is relative to where cargo runs, which is here.
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/socialscope_benchmark" --out-dir "$here/out" "$@"
