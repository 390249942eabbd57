#!/usr/bin/env bash
# Build tsql and the benchmark from source, then run the benchmark.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   (one run, JSON on the last line)
#   benchmark/run.sh [--seed N] [--seconds S] [--repeat K] [--trace]  (every workload, writes out/result.json)
#   benchmark/run.sh compare a.json b.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Fails (non-zero, no result) when the repository's sources are absent.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    -p temporal-server --bin tsql >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

cd "$root"
exec "$target/release/benchmark" "$@"
