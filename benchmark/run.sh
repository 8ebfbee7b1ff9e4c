#!/usr/bin/env bash
# The benchmark's command (see ../BENCHMARK.json): builds the repo's own
# irs-cli (the child the wire workloads serve from) and the harness, both
# from source and into one target directory, then runs the harness with
# the arguments given.
#
#   bash benchmark/run.sh --workload wire-small-s --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh --all --seed 1            # every workload
#   bash benchmark/run.sh --all --seed 1 --smoke    # n = 20 000, 1 s phases
#   bash benchmark/run.sh list
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --bin irs-cli
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/irs-benchmark" "$@"
