#!/usr/bin/env bash
# Builds the benchmark in release and runs it with the given arguments.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh [--seed <n>] [--seconds <s>] [--repeats <r>] [--trace] [--out <file>]
#   benchmark/run.sh compare A.json B.json
#
# Build output goes to stderr, so stdout carries only the program's result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../.bench_build}"
# Scratch directories and trace files stay inside the benchmark's own tree.
export KVM_BENCH_OUT="${KVM_BENCH_OUT:-$here/out}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
