#!/usr/bin/env bash
# Perf-trajectory entry point: builds Release (benchmarks only, in its
# own build tree) and runs the serving-path throughput bench, leaving
# BENCH_query_throughput.json in the repo root.
#
# Usage: scripts/bench.sh [build-dir]          (default: build-bench)
#
# Knobs (environment):
#   L2R_BENCH_SCALE     workload scale; the scale ladder runs at scale x
#                       {1, 10/3, 10}                          (default 0.3)
#   L2R_BENCH_QUERIES   query count                           (default 1200)
#   L2R_BENCH_OUT       output JSON path  (default BENCH_query_throughput.json)
#   L2R_BENCH_ONLY      comma-separated subset of the selectable blocks
#                       {streaming, deadline_sweep, overload_sweep,
#                       dynamic_world, scale_ladder, scale_out}; the others
#                       are written as null. offline_build, latency_us,
#                       serving, runs and scenarios always run. Example:
#                         L2R_BENCH_ONLY=dynamic_world scripts/bench.sh
#
# The bench itself rejects an unknown block name; scripts/bench_check.py
# validates the artifact. See README "Benchmarking" for the blocks.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-bench}"
BENCH_OUT="${L2R_BENCH_OUT:-BENCH_query_throughput.json}"

# Fail fast on an unwritable output path: the bench would only find out
# after the whole run, and a stale JSON left behind looks like a fresh one.
if ! touch "$BENCH_OUT" 2>/dev/null; then
  echo "error: L2R_BENCH_OUT='$BENCH_OUT' is not writable" >&2
  exit 1
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
  -DL2R_BUILD_TESTS=OFF -DL2R_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j "$(nproc)" --target query_throughput
"$BUILD_DIR/bench/query_throughput"
