#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite in
# six passes — (1) pinned to a single compute thread, (2) RPOL_THREADS
# unset (pool defaults to hardware_concurrency), (3) RPOL_TRACE=1, (4) a
# bounded-memory pass with RPOL_CKPT_BUDGET squeezed to a few KiB so the
# checkpoint stores spill and evict constantly (the verdict goldens run in
# it too, so verification from a spilling store must reproduce the recorded
# digests, and the judge suite, whose streaming pools must still reject a
# wrong-size RPoLv2 worker from a spilling store),
# then (5) and (6) under AddressSanitizer and UndefinedBehaviorSanitizer in
# separate build trees. The main build is
# strict (-DRPOL_WERROR=ON), and an RPOL_SIMD=OFF tree builds tensor_test,
# sim_test, nn_layers_test, lsh_test and core_commitment_golden_test: their
# golden digests pin every normal variate to the scalar Box-Muller in both
# ISA builds, the scalar direct conv kernels, Conv2d's only path in that
# build, must match the im2col + GEMM oracle bit for bit, and the scalar
# LSH projection loop must reproduce the buckets and commitment roots the
# 16-row AVX2 kernel gives.
# Shard count needs no pass of its own: in every pass, runtime_determinism_test
# reproduces the pool golden and the streamed-pool result at several shard
# counts.
# All passes must be green: the runtime's determinism contract says neither
# thread count, shard count, tracing, nor the checkpoint-store budget can
# ever change results, and the fault-injection/fuzz suites push hostile
# bytes through every decoder, so memory or UB findings anywhere are real
# bugs, not flakiness.
#
# After the fast passes it builds and self-tests the benchmark
# (python3 perfbench/run.py --selftest).
#
# Usage: tools/run_tier1.sh [build-dir]   (default: build)
# Set RPOL_SKIP_SANITIZERS=1 to run only the four fast passes and the
# perfbench selftest.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S . -DRPOL_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "==> tier-1 pass 1/6: RPOL_THREADS=1"
(cd "$BUILD_DIR" && RPOL_THREADS=1 ctest --output-on-failure -j "$(nproc)")

echo "==> tier-1 pass 2/6: RPOL_THREADS unset (default thread count)"
(cd "$BUILD_DIR" && env -u RPOL_THREADS ctest --output-on-failure -j "$(nproc)")

echo "==> tier-1 pass 3/6: RPOL_TRACE=1 (tracing on; results must not change)"
(cd "$BUILD_DIR" && RPOL_TRACE=1 ctest --output-on-failure -j "$(nproc)")

echo "==> tier-1 pass 4/6: RPOL_CKPT_BUDGET=4096 (hot cache squeezed to one"
echo "    checkpoint; streaming suites and verdict goldens must stay bitwise"
echo "    identical, and the judge suite's streaming pools must still reject"
echo "    wrong-size workers)"
(cd "$BUILD_DIR" && RPOL_CKPT_BUDGET=4096 ctest --output-on-failure \
  -R 'core_ckptstore_test|runtime_determinism_test|core_commitment_golden_test|core_verdict_golden_test|core_judge_test' \
  -j "$(nproc)")

echo "==> tier-1 scalar kernels: RPOL_SIMD=OFF build (scalar Box-Muller,"
echo "    direct conv and LSH projections only) must reproduce the golden"
echo "    normal-variate, LSH bucket and commitment digests and match the"
echo "    im2col + GEMM oracle"
cmake -B "${BUILD_DIR}-nosimd" -S . -DRPOL_SIMD=OFF
cmake --build "${BUILD_DIR}-nosimd" -j "$(nproc)" \
  --target tensor_test sim_test nn_layers_test lsh_test \
  core_commitment_golden_test
(cd "${BUILD_DIR}-nosimd" && ctest --output-on-failure \
  -R '^(tensor_test|sim_test|nn_layers_test|lsh_test|core_commitment_golden_test)$')

# Advisory regression check against the committed benchmark baseline: the
# cost-model rows are deterministic, so only genuine protocol-cost changes
# (or a stale baseline — regenerate with tools/make_bench_baseline.sh) move
# them, the crypto/commitment harness covers the hashing hot path, the
# blocked-layout conv harness covers Conv2d's speedup rows over a bench-local
# im2col + GEMM reference,
# and the streaming harness covers the bounded-memory checkpoint pipeline
# (its core.stream.* rows carry peak RSS, which --mem-tolerance compares),
# and bench_pool_scale covers the sharded manager's submissions/sec and
# peak-RSS envelope at >= 1k workers (pool.scale.* rows).
# Advisory because wall-clock rows vary across machines. --mem-tolerance adds
# an advisory peak-RSS comparison on records where both sides carry the
# memory column (old baselines without it are simply not compared).
if [[ -f BENCH_baseline.json ]]; then
  echo "==> advisory: rpol bench-diff vs BENCH_baseline.json (does not gate)"
  rm -f "$BUILD_DIR/BENCH_current.json"
  (cd "$BUILD_DIR" && RPOL_BENCH_FILE=BENCH_current.json \
    ./bench/bench_table3_overhead >/dev/null)
  (cd "$BUILD_DIR" && RPOL_BENCH_FILE=BENCH_current.json \
    ./bench/bench_micro --crypto-only >/dev/null)
  (cd "$BUILD_DIR" && RPOL_BENCH_FILE=BENCH_current.json \
    ./bench/bench_micro --layout-only >/dev/null)
  (cd "$BUILD_DIR" && RPOL_BENCH_FILE=BENCH_current.json \
    ./bench/bench_micro --stream-only >/dev/null)
  (cd "$BUILD_DIR" && RPOL_BENCH_FILE=BENCH_current.json \
    ./bench/bench_pool_scale >/dev/null)
  "$BUILD_DIR/tools/rpol" bench-diff BENCH_baseline.json \
    "$BUILD_DIR/BENCH_current.json" --tolerance 0.35 --mem-tolerance 0.50 \
    || echo "==> advisory bench-diff flagged deltas (non-fatal)"
fi

# The benchmark builds from this source tree (into the gitignored
# .bench_build/) and calls the pool and session APIs; no other step compiles
# perfbench/workload.cpp, so an API change that breaks it fails here, not
# first in a benchmark run. Runs with or without the sanitizer passes.
echo "==> tier-1 perfbench selftest: build the benchmark, check its metrics"
python3 perfbench/run.py --selftest

if [[ "${RPOL_SKIP_SANITIZERS:-0}" == "1" ]]; then
  echo "==> tier-1 OK: four fast configurations and the perfbench selftest"
  echo "    green (sanitizers skipped)"
  exit 0
fi

echo "==> tier-1 pass 5/6: AddressSanitizer (RPOL_SANITIZE=address)"
cmake -B "${BUILD_DIR}-asan" -S . -DRPOL_SANITIZE=address
cmake --build "${BUILD_DIR}-asan" -j "$(nproc)"
(cd "${BUILD_DIR}-asan" && ctest --output-on-failure -j "$(nproc)")

echo "==> tier-1 pass 6/6: UndefinedBehaviorSanitizer (RPOL_SANITIZE=undefined)"
cmake -B "${BUILD_DIR}-ubsan" -S . -DRPOL_SANITIZE=undefined
cmake --build "${BUILD_DIR}-ubsan" -j "$(nproc)"
(cd "${BUILD_DIR}-ubsan" && ctest --output-on-failure -j "$(nproc)")

echo "==> tier-1 OK: all six configurations green"
