#!/usr/bin/env bash
# Regenerates the committed benchmark baselines from a release build,
# or gates a fresh run against them:
#
#   * BENCH_par.json  — kernel scaling across thread counts
#     (bench_micro --json-out, see bench/bench_micro.cc);
#   * BENCH_simd.json — SIMD backend x kernel matrix at one thread
#     (bench_micro --mode=backend --json-out);
#   * BENCH_profile.json — the scaling grid under the profiler
#     (bench_micro --mode=profile --json-out, DESIGN.md §11): rows add
#     utilization, chunk-imbalance, GB/s, arithmetic intensity;
#   * BENCH_stream.json — memory-budget sweep of the streaming layer:
#     per SENS path (exact, lsh), the unbudgeted peak, then each
#     distinct budget among 1/2, 1/4, 1/8 of it (floored at 1 MiB),
#     each row recording peak/seconds/spilled bytes and that the fused
#     matrix stayed bit-identical (bench_micro --mode=stream
#     --json-out, DESIGN.md §10). STREAM_SCALE tunes the dataset size;
#   * BENCH_dag.json — the operator-DAG executor on the full pipeline
#     at max_concurrency 1 (serial order) vs the pool's thread count
#     (bench_micro --mode=dag --json-out, DESIGN.md §14): both wall
#     clocks, per-node timings, and the node-level critical path, with
#     bit-identity asserted. DAG_SCALE tunes the dataset;
#   * BENCH_serve.json — single-query latency/QPS of the serving layer
#     (bench_micro --mode=serve --json-out, DESIGN.md §15): per index
#     size, the entity path, the ANN name path, and the exact-scan name
#     path, with recall@k and the ANN-vs-scan p50 speedup (asserted
#     >= 10x at the largest size). SERVE_TARGETS tunes the sizes.
#
# Usage:
#   tools/run_bench.sh                 # regenerate baselines in repo root
#   tools/run_bench.sh --gate          # fresh par+simd+profile runs vs
#                                      # committed baselines; non-zero exit
#                                      # on a >GATE_TOLERANCE throughput
#                                      # drop or a profile-quality
#                                      # regression (utilization down /
#                                      # imbalance up, see bench_gate.py)
#   tools/run_bench.sh --gate-check    # validate committed baselines only
#                                      # (no benches run; CI-safe)
#   OUT_DIR=/tmp tools/run_bench.sh    # write elsewhere
#   MIN_TIME=1.0 tools/run_bench.sh    # longer timing windows
#   THREADS_LIST=1,2,4 tools/run_bench.sh
#   GATE_TOLERANCE=0.25 tools/run_bench.sh --gate
#   BENCH_RUNS=5 tools/run_bench.sh    # best-of-N for the gated benches
#
# The gated benches (par, simd) are measured as best-of-BENCH_RUNS per
# row — noise is one-sided, so taking the max on both the baseline and
# the fresh side keeps GATE_TOLERANCE meaningful on machines whose
# single-run jitter exceeds it.
#
# The numbers are machine-dependent; the committed files record the
# machine the perf trajectory was measured on and are refreshed whenever
# a kernel change moves them. The gate therefore only means something
# when run on that same machine — CI uses --gate-check instead.
set -euo pipefail

cd "$(dirname "$0")/.."

OUT_DIR="${OUT_DIR:-.}"
MIN_TIME="${MIN_TIME:-0.3}"
THREADS_LIST="${THREADS_LIST:-1,2,4,8}"
BUILD_DIR="${BUILD_DIR:-build}"
STREAM_SCALE="${STREAM_SCALE:-0.2}"
DAG_SCALE="${DAG_SCALE:-0.2}"
SERVE_TARGETS="${SERVE_TARGETS:-2000,8000,32000,256000}"
GATE_TOLERANCE="${GATE_TOLERANCE:-0.15}"
BENCH_RUNS="${BENCH_RUNS:-3}"

# Runs a bench BENCH_RUNS times and keeps, per row, the fastest run.
# System noise is one-sided (it only slows runs down), so best-of-N on
# both the baseline and the fresh side is what lets GATE_TOLERANCE sit
# below the machine's single-run jitter.
bench_best() {
  local out="$1"
  shift
  local -a runs=()
  local tmp i
  for ((i = 1; i <= BENCH_RUNS; ++i)); do
    tmp="$(mktemp)"
    runs+=("${tmp}")
    "$@" --json-out="${tmp}"
  done
  python3 tools/bench_gate.py --merge-best "${out}" "${runs[@]}"
  rm -f "${runs[@]}"
}

MODE="generate"
case "${1:-}" in
  --gate) MODE="gate" ;;
  --gate-check) MODE="gate-check" ;;
  "") ;;
  *)
    echo "usage: tools/run_bench.sh [--gate|--gate-check]" >&2
    exit 2
    ;;
esac

if [[ "${MODE}" == "gate-check" ]]; then
  exec python3 tools/bench_gate.py --check \
    BENCH_par.json BENCH_simd.json BENCH_profile.json BENCH_stream.json \
    BENCH_dag.json BENCH_serve.json
fi

cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target bench_micro

if [[ "${MODE}" == "gate" ]]; then
  # Fresh runs land in a scratch dir and are compared row-by-row against
  # the committed baselines; any kernel whose throughput dropped more
  # than GATE_TOLERANCE fails the script.
  GATE_DIR="$(mktemp -d)"
  trap 'rm -rf "${GATE_DIR}"' EXIT

  echo "=== gate: kernel scaling (threads, best of ${BENCH_RUNS}) ==="
  bench_best "${GATE_DIR}/BENCH_par.json" \
    "${BUILD_DIR}/bench/bench_micro" \
    --threads-list="${THREADS_LIST}" --min-time="${MIN_TIME}"

  echo "=== gate: SIMD backend matrix (best of ${BENCH_RUNS}) ==="
  bench_best "${GATE_DIR}/BENCH_simd.json" \
    "${BUILD_DIR}/bench/bench_micro" --mode=backend --min-time="${MIN_TIME}"

  echo "=== gate: profile sweep (best of ${BENCH_RUNS}) ==="
  bench_best "${GATE_DIR}/BENCH_profile.json" \
    "${BUILD_DIR}/bench/bench_micro" --mode=profile \
    --threads-list="${THREADS_LIST}" --min-time="${MIN_TIME}"

  status=0
  python3 tools/bench_gate.py --tolerance "${GATE_TOLERANCE}" \
    --baseline BENCH_par.json --fresh "${GATE_DIR}/BENCH_par.json" \
    || status=1
  python3 tools/bench_gate.py --tolerance "${GATE_TOLERANCE}" \
    --baseline BENCH_simd.json --fresh "${GATE_DIR}/BENCH_simd.json" \
    || status=1
  python3 tools/bench_gate.py --tolerance "${GATE_TOLERANCE}" \
    --baseline BENCH_profile.json --fresh "${GATE_DIR}/BENCH_profile.json" \
    || status=1
  if [[ "${status}" -ne 0 ]]; then
    echo "run_bench.sh: PERF GATE FAILED (see rows above)" >&2
  fi
  exit "${status}"
fi

echo "=== kernel scaling (threads, best of ${BENCH_RUNS}) ==="
bench_best "${OUT_DIR}/BENCH_par.json" \
  "${BUILD_DIR}/bench/bench_micro" \
  --threads-list="${THREADS_LIST}" --min-time="${MIN_TIME}"

echo "=== SIMD backend matrix (best of ${BENCH_RUNS}) ==="
bench_best "${OUT_DIR}/BENCH_simd.json" \
  "${BUILD_DIR}/bench/bench_micro" --mode=backend --min-time="${MIN_TIME}"

echo "=== profile sweep ==="
"${BUILD_DIR}/bench/bench_micro" --mode=profile \
  --json-out="${OUT_DIR}/BENCH_profile.json" \
  --threads-list="${THREADS_LIST}" --min-time="${MIN_TIME}"

echo "=== streaming budget sweep ==="
"${BUILD_DIR}/bench/bench_micro" --mode=stream \
  --json-out="${OUT_DIR}/BENCH_stream.json" --scale="${STREAM_SCALE}"

echo "=== DAG executor sweep ==="
"${BUILD_DIR}/bench/bench_micro" --mode=dag \
  --json-out="${OUT_DIR}/BENCH_dag.json" --scale="${DAG_SCALE}"

echo "=== serve sweep ==="
"${BUILD_DIR}/bench/bench_micro" --mode=serve \
  --json-out="${OUT_DIR}/BENCH_serve.json" \
  --targets-list="${SERVE_TARGETS}" --min-time="${MIN_TIME}"
