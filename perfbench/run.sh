#!/usr/bin/env bash
# Build the flow daemons and the benchmark from source, then run one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold_rent1k --seed 1 --seconds 30 --trace 0
#
# Build output goes to standard error; the benchmark's result is the last
# line of standard output. Build products land in $CARGO_TARGET_DIR
# (default .bench_build), scratch files and traces under it.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p fpga-server --bin flowd --bin flow-gateway 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2

export PERFBENCH_BIN="$CARGO_TARGET_DIR/release"
export PERFBENCH_WORK="$CARGO_TARGET_DIR/perfbench"
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
