#!/usr/bin/env bash
# Builds the `cod` binary and the benchmark harness from this checkout,
# then runs the harness from the checkout root:
#
#   bash perfbench/run.sh --workload serve_cora --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady
#
# Build output goes to stderr so the harness's last stdout line stays the
# result line.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin cod >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --cod "$CARGO_TARGET_DIR/release/cod" "$@"
