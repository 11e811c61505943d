#!/usr/bin/env bash
# Regenerates BENCH_baseline.json — the committed rpol.bench.v1 registry that
# seeds the performance trajectory (`rpol bench-diff BENCH_baseline.json ...`).
#
# Only the smoke-shape benches feed the baseline (the full suite takes
# minutes): bench_micro's crypto/commitment, blocked-layout conv, and
# streaming-checkpoint harnesses (SHA/commit throughput, Merkle and
# transition-proof times, Conv2d-vs-reference speedups, and core.stream.*
# bounded-memory rows),
# bench_table3's deterministic cost-model rows, and bench_pool_scale's
# sharded-manager pool.scale.* rows (submissions/sec at >= 1k workers plus an
# explicit peak-RSS row). All write into the same file via RPOL_BENCH_FILE;
# BenchRecorder overlay-merges on write. Every record's env
# now carries peak_rss_bytes (VmHWM at record time), so a regenerated
# baseline lets `rpol bench-diff --mem-tolerance 0.xx` gate memory too.
#
# Usage: tools/make_bench_baseline.sh [build-dir]   (default: build)

set -euo pipefail
cd "$(dirname "$0")/.."
BUILD="${1:-build}"

for bin in bench_micro bench_table3_overhead bench_pool_scale; do
  if [[ ! -x "$BUILD/bench/$bin" ]]; then
    echo "missing $BUILD/bench/$bin — build first: cmake --build $BUILD -j" >&2
    exit 1
  fi
done

rm -f BENCH_baseline.json

# With no mode bench_micro runs all three harnesses; '^$' filters out the
# google-benchmark suites so the baseline pass stays short.
RPOL_BENCH_FILE=BENCH_baseline.json \
  "$BUILD/bench/bench_micro" --benchmark_filter='^$' >/dev/null

RPOL_BENCH_FILE=BENCH_baseline.json \
  "$BUILD/bench/bench_table3_overhead" >/dev/null

RPOL_BENCH_FILE=BENCH_baseline.json \
  "$BUILD/bench/bench_pool_scale" >/dev/null

echo "wrote BENCH_baseline.json:"
"$BUILD/tools/rpol" bench-diff BENCH_baseline.json BENCH_baseline.json
