#!/usr/bin/env bash
# Builds the `mcc` binary and the benchmark from source, then runs one
# workload:
#
#   bash mccbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default `.bench_build`, apart from the repository's own `target`).
# Exits non-zero without a result line when the repository's crates are
# not beside this directory.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
target="$CARGO_TARGET_DIR"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p mcc-cli >&2
cargo build --release --offline --quiet --manifest-path mccbench/Cargo.toml >&2
exec "$target/release/mccbench" --mcc "$target/release/mcc" "$@"
