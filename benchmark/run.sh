#!/usr/bin/env bash
# Builds dss-perf (release, offline, locked) and runs it from the repository
# root.
#
#   benchmark/run.sh [--seed N] [--reps R]
#       all four workloads: R timed reps (default 3) plus one traced rep
#       each; prints every metric by name with its unit, verifies the
#       outputs, writes benchmark/out/results.json and spans-<workload>.jsonl.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one driver run of one workload; the last line of stdout is the
#       result as one JSON object.
#
#   benchmark/run.sh compare A.json B.json
#       the regression gate over two results files.
#
# Compilation is never timed: it happens here, before dss-perf starts.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/dss-perf" "$@"
