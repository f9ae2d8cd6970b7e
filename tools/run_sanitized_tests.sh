#!/usr/bin/env bash
# Builds and runs the test suite under sanitizers, via the CMake presets
# (see CMakePresets.json):
#
#   * `sanitize` — ASan+UBSan into build-sanitize/ (memory bugs, UB);
#   * `tsan`     — ThreadSanitizer into build-tsan/, with LARGEEA_THREADS
#     forced > 1 so the par::ThreadPool actually starts workers and every
#     parallel hot path races for real (data races, lock misuse).
#
# Each sanitizer runs the suite once per SIMD backend in SIMD_BACKENDS
# (default: scalar, then auto = best native), so both the scalar kernels
# and the native vector loads/tails are sanitizer-checked (DESIGN.md §9).
# The cross-backend equivalence tests additionally exercise every
# available backend inside a single run via simd::KernelsFor.
#
# The full suite runs by default so the fault-injection matrix
# (tests/fault_tolerance_test.cc) and the IO fuzz tests execute under the
# sanitizers; pass a gtest filter to narrow the run:
#
#   tools/run_sanitized_tests.sh                    # asan + tsan, via ctest
#   tools/run_sanitized_tests.sh '*FaultTolerance*' # one suite, direct
#   SANITIZERS=tsan tools/run_sanitized_tests.sh    # tsan only
#   SIMD_BACKENDS=auto tools/run_sanitized_tests.sh # native backend only
#
# After the main matrix, a streamed pass re-runs a curated filter with
# LARGEEA_MEMORY_BUDGET_MB set to a tiny budget, so the sanitizers see
# the spill path (chunked write, verified mapping, SENS over the mapped
# target) and FuseStreamed under memory/race checking (DESIGN.md §10).
# The filter is curated to the suites whose runs take the spill path;
# the main pass already covers the rest (every run, budgeted or not,
# releases its intermediate matrices). STREAM_BUDGET_MB tunes the budget.
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZERS="${SANITIZERS:-sanitize tsan}"
SIMD_BACKENDS="${SIMD_BACKENDS:-scalar auto}"
STREAM_BUDGET_MB="${STREAM_BUDGET_MB:-8}"
STREAM_FILTER='Stream*:Spill*:FuseStreamed*:MemoryBudget*:ParDeterminism*:Dag*'

for preset in ${SANITIZERS}; do
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "$(nproc)" --target largeea_tests

  for simd in ${SIMD_BACKENDS}; do
    echo "=== ${preset} (LARGEEA_SIMD=${simd}) ==="
    if [[ $# -ge 1 ]]; then
      case "${preset}" in
        sanitize)
          ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
          UBSAN_OPTIONS=print_stacktrace=1 \
          LARGEEA_SIMD="${simd}" \
            "build-${preset}/tests/largeea_tests" --gtest_filter="$1"
          ;;
        tsan)
          TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
          LARGEEA_THREADS=4 \
          LARGEEA_SIMD="${simd}" \
            "build-${preset}/tests/largeea_tests" --gtest_filter="$1"
          ;;
      esac
    else
      LARGEEA_SIMD="${simd}" ctest --preset "${preset}"
    fi
  done

  # The crash/chaos matrix always runs under ASan — even when a narrowing
  # filter was passed for the main pass — because the multi-process shard
  # scenarios (SIGKILLed workers, SIGSTOP hangs, corrupt artifacts) spawn
  # sanitized largeea_cli workers and are exactly where lifetime bugs in
  # the supervision/recovery paths would hide. tsan is skipped here: the
  # scenarios stop and kill whole processes, which the tsan runtime
  # tolerates poorly, and the in-process parallelism they exercise is
  # already covered by the main tsan pass.
  if [[ "${preset}" == sanitize ]]; then
    echo "=== ${preset} (fault-tolerance + shard chaos matrix) ==="
    ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
    UBSAN_OPTIONS=print_stacktrace=1 \
      "build-${preset}/tests/largeea_tests" \
      --gtest_filter='FaultTolerance*:ShardChaos*:ShardPlan*:ShardComplete*:Heartbeat*:Subprocess*:TraceMerge*'
    # The readers of outside bytes, likewise always: the artifact fuzzers
    # (checkpoints, spills, and the mapped index, whose damaged images must
    # be refused before a query reads past a section), the HNSW CSR
    # checks, the serve protocol fuzzer with its bounds on k and on the
    # request line, and the KG TSV loaders' fuzzer.
    echo "=== ${preset} (artifact, index, serve protocol and TSV fuzzers) ==="
    ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
    UBSAN_OPTIONS=print_stacktrace=1 \
      "build-${preset}/tests/largeea_tests" \
      --gtest_filter='ArtifactFuzz*:IndexFuzz*:HnswCsr*:ServeProtocolFuzz*:QueryEngineTest.*:KgIoFuzz*'
  fi

  echo "=== ${preset} (streamed, LARGEEA_MEMORY_BUDGET_MB=${STREAM_BUDGET_MB}) ==="
  case "${preset}" in
    sanitize)
      ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
      UBSAN_OPTIONS=print_stacktrace=1 \
      LARGEEA_MEMORY_BUDGET_MB="${STREAM_BUDGET_MB}" \
        "build-${preset}/tests/largeea_tests" \
        --gtest_filter="${STREAM_FILTER}"
      ;;
    tsan)
      TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
      LARGEEA_THREADS=4 \
      LARGEEA_MEMORY_BUDGET_MB="${STREAM_BUDGET_MB}" \
        "build-${preset}/tests/largeea_tests" \
        --gtest_filter="${STREAM_FILTER}"
      ;;
  esac
done
