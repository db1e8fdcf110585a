#!/usr/bin/env bash
# Builds the benchmark (offline, release profile) and runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh all [--seed <n>] [--seconds <s>] [--quick] [--out <file>]
#   benchmark/run.sh compare <A.json> <B.json>
#
# The build goes to $CARGO_TARGET_DIR when that is set, else to
# benchmark/target. Nothing outside the checkout is read or written.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build messages go to standard error: the last line of standard output
# is the result.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

export SCIML_BENCH_DIR="$here"
exec "$target/release/sciml-e2e-benchmark" "$@"
