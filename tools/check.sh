#!/usr/bin/env bash
# Tier-1 check under sanitizers. LSHAP_SANITIZE selects the mode:
#
#   address (default, alias ON) — ASan+UBSan build tree (build-sanitize),
#       full test suite, including the seeded corruption sweeps over the
#       shard and manifest decoders (corpus_io_test), model files
#       (model_io_test) and SQL text (parser_test).
#   thread — TSan build tree (build-tsan), running the concurrency-heavy
#       tests: the morsel-parallel evaluator differential tests
#       (eval_property_test), the null-semantics golden pins — parallel
#       evaluation over validity bitmaps at 1/2/8 threads, and a
#       forced-bitmap join log on a 4-thread pool
#       (null_semantics_test), the budget/cancellation machinery
#       (budget_test), parallel ladder waves under deadline cancellation
#       (corpus_budget_test), the ThreadPool stress test (common_test), the
#       sharded metrics registry (metrics_test), the corpus shard
#       streaming layer — concurrent ReadShard + cursor prefetch, and
#       pre-training + fine-tuning on a 4-thread pool (corpus_stream_test)
#       — the ranking service: concurrent Submit/Rank with snapshot swaps
#       under load (serving_test) — and
#       the shared const ranker scored from many threads in both float
#       and int8 inference modes (quant_test) — and the per-thread
#       binomial rows of exact Shapley counting, requested from four
#       threads at once (circuit_test).
#   serve — plain build, then a short closed-loop bench_serve smoke run
#       (warm / overload / chaos phases). Exits non-zero if any phase
#       violates the zero-silent-drops accounting invariant.
#
# Any sanitizer report aborts the offending test
# (-fno-sanitize-recover=all), so a green run means clean.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE="${LSHAP_SANITIZE:-address}"
case "$MODE" in
  ON|address)
    BUILD_DIR="${BUILD_DIR:-build-sanitize}"
    CMAKE_MODE=ON
    TEST_ARGS=()
    ;;
  thread)
    BUILD_DIR="${BUILD_DIR:-build-tsan}"
    CMAKE_MODE=thread
    # ^metrics_test$ and ^budget_test$ are anchored: bare names would also
    # match ranking_metrics_test (single-threaded and slow under TSan) and
    # corpus_budget_test, which is listed on its own. ^circuit_test$ is
    # anchored like them.
    TEST_ARGS=(-R 'eval_property_test|null_semantics_test|^budget_test$|^corpus_budget_test$|common_test|^metrics_test$|corpus_stream_test|serving_test|quant_test|^circuit_test$')
    ;;
  serve)
    BUILD_DIR="${BUILD_DIR:-build}"
    cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_serve
    "$BUILD_DIR"/bench/bench_serve --smoke
    "$BUILD_DIR"/bench/bench_serve --smoke --quantized
    exit 0
    ;;
  *)
    echo "unknown LSHAP_SANITIZE mode '$MODE' (want address|ON|thread|serve)" >&2
    exit 2
    ;;
esac

cmake -B "$BUILD_DIR" -S . -DLSHAP_SANITIZE="$CMAKE_MODE" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
      "${TEST_ARGS[@]}"
