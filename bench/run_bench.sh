#!/usr/bin/env bash
# Runs the tracked hot-path microbenchmarks and records the numbers in
# BENCH_micro.json under a run label, so before/after comparisons are part
# of the repo instead of someone's scrollback.
#
# Usage: bench/run_bench.sh [label] [build-dir]
#   label      run label in BENCH_micro.json (default: dev)
#   build-dir  CMake build directory, created Release if absent
#              (default: build-bench, kept separate from the test build)
set -euo pipefail

LABEL="${1:-dev}"
BUILD_DIR="${2:-build-bench}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
FILTER='BM_EfsmTransition|BM_ClassifySip|BM_ClassifyRtp|BM_VidsInspectRtpInSession|BM_VidsInspectRtpPaced|BM_VidsInspectSip|BM_FactBaseSweep|BM_ShardedIngest/'
RAW_JSON="$(mktemp /tmp/micro_core.XXXXXX.json)"
trap 'rm -f "$RAW_JSON"' EXIT

cmake -S "$ROOT" -B "$ROOT/$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$ROOT/$BUILD_DIR" --target micro_core -j >/dev/null

# NOTE: this benchmark version takes min_time as a bare double (seconds).
# Three repetitions: report_bench.py records each row's median and spread,
# since single runs on a shared host vary by up to 2x.
"$ROOT/$BUILD_DIR/bench/micro_core" \
  --benchmark_filter="$FILTER" \
  --benchmark_min_time=0.5 \
  --benchmark_repetitions=3 \
  --benchmark_format=json >"$RAW_JSON"

# BM_VidsInspectSip admits a fresh call per packet and is expected to
# allocate (same whitelist CI's screen step uses); everything else must
# report 0 allocs/iter or the recording run flags it.
python3 "$ROOT/bench/report_bench.py" "$ROOT/BENCH_micro.json" "$LABEL" \
  "$RAW_JSON" --allow-allocs BM_VidsInspectSip
