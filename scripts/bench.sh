#!/usr/bin/env bash
# Perf-trajectory entry point: builds Release (benchmarks only, in its
# own build tree) and runs the serving-path throughput bench, leaving
# BENCH_query_throughput.json in the repo root.
#
# Usage: scripts/bench.sh [build-dir]          (default: build-bench)
#
# Global knobs:
#   L2R_BENCH_SCALE     workload scale      (default 0.3)
#   L2R_BENCH_QUERIES   query count         (default 1200)
#   L2R_BENCH_OUT       output JSON path    (default BENCH_query_throughput.json)
#   L2R_BENCH_BUDGET_US fallback budget, us (default 25; 0 = no budget)
#   L2R_BENCH_STREAM_GAP_US  mean arrival gap, us (default 50)
#
# Gated-block matrix — each knob is INDEPENDENT (default 1 = run;
# 0 = skip; setting one never re-enables or disables another):
#   knob                      block                 JSON key
#   L2R_BENCH_CACHE           cache-on serving pass serving.cache_on
#   L2R_BENCH_STREAM          streaming replay      streaming
#   L2R_BENCH_DEADLINE_SWEEP  batch-deadline sweep  deadline_sweep
#   L2R_BENCH_OVERLOAD        overload sweep        overload_sweep
#   L2R_BENCH_DYNAMIC         dynamic world (*)     dynamic_world
#   L2R_BENCH_SCALE_LADDER    metro-scale ladder    scale_ladder
#   L2R_BENCH_SCALE_OUT       scale-out serving     scale_out
#   (*) also requires the cache pass on.
#
# The scale ladder additionally reads L2R_BENCH_LADDER_SCALES (comma-
# separated generator scales, default "0.3,1.0,3.0"; scale 3.0 is a
# 1M+-vertex world and takes ~20s on a laptop).
#
# To run a SINGLE gated block, set L2R_BENCH_ONLY to a comma-separated
# subset of {cache,stream,deadline_sweep,overload,dynamic,scale_ladder,
# scale_out}:
# every gated knob you did not set explicitly defaults to 0 and the
# listed blocks are forced on. Example — just the dynamic-world block:
#   L2R_BENCH_ONLY=cache,dynamic scripts/bench.sh
# (dynamic implies the cache pass; list it explicitly.)
#
# The bench reports per-query latency percentiles, the serving-cache
# comparison (cache off vs on over a skewed repeated-query workload),
# multi-core batch QPS for t = 1, 2, 4, 8, the scenario dedup suite, the
# streaming front-end replay (Poisson / bursty arrivals through
# StreamRouter: QPS, batch-size histogram, queue-wait percentiles), the
# batch-deadline sweep (latency/throughput tradeoff the overload
# controller's deadline bounds come from), the overload sweep (OverloadController + per-class shedding at 0.5x-10x
# measured capacity: goodput, shed split, drain-wait percentiles), and
# the dynamic-world scenarios (incident_injection / rush_hour_transition
# / rolling_closures: epoch-versioned invalidation, incremental repair
# vs wholesale recompute, no-stale-serve byte audits), and the
# metro-scale ladder (generator scales 0.3/1.0/3.0: world footprint,
# CSV-vs-mmap snapshot cold start — validated and checksum-only trusted
# opens — Dijkstra QPS on the mapped image), and the scale-out block
# (full serving stack at t = 1/2/4/8 plus a StreamRouter drain-thread
# 1/2/4 audit, every rung byte-compared against the bare-router
# reference; seqlock hot-path hit counts ride along).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-bench}"
BENCH_OUT="${L2R_BENCH_OUT:-BENCH_query_throughput.json}"

# L2R_BENCH_ONLY: run just the listed gated blocks (see header matrix).
# Explicitly exported knobs keep their values for the off side; listed
# blocks are forced on.
if [[ -n "${L2R_BENCH_ONLY:-}" ]]; then
  declare -A KNOB_FOR_BLOCK=(
    [cache]=L2R_BENCH_CACHE
    [stream]=L2R_BENCH_STREAM
    [deadline_sweep]=L2R_BENCH_DEADLINE_SWEEP
    [overload]=L2R_BENCH_OVERLOAD
    [dynamic]=L2R_BENCH_DYNAMIC
    [scale_ladder]=L2R_BENCH_SCALE_LADDER
    [scale_out]=L2R_BENCH_SCALE_OUT
  )
  for knob in "${KNOB_FOR_BLOCK[@]}"; do
    if [[ -z "${!knob:-}" ]]; then
      export "$knob"=0
    fi
  done
  IFS=',' read -ra ONLY_BLOCKS <<< "$L2R_BENCH_ONLY"
  for block in "${ONLY_BLOCKS[@]}"; do
    knob="${KNOB_FOR_BLOCK[$block]:-}"
    if [[ -z "$knob" ]]; then
      echo "error: unknown L2R_BENCH_ONLY block '$block'" >&2
      echo "       (expected a subset of: ${!KNOB_FOR_BLOCK[*]})" >&2
      exit 1
    fi
    export "$knob"=1
  done
fi

# Fail fast when the output path is unwritable: the bench only discovers
# this after running the whole workload, and the stale JSON it leaves
# behind looks like a fresh result.
if ! touch "$BENCH_OUT" 2>/dev/null; then
  echo "error: L2R_BENCH_OUT='$BENCH_OUT' is not writable" >&2
  echo "       (missing directory or no permission); fix the path or" >&2
  echo "       unset L2R_BENCH_OUT to write BENCH_query_throughput.json" >&2
  exit 1
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
  -DL2R_BUILD_TESTS=OFF -DL2R_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j "$(nproc)" --target query_throughput
"$BUILD_DIR/bench/query_throughput"
