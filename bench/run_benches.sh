#!/usr/bin/env bash
# Runs the checked-in benchmark series and writes google-benchmark's
# aggregate JSON (median ns/op plus per-series counters):
#
#   bench/run_benches.sh [SERIES...]
#
# runs the named series, or all seven when none is named. Each SERIES is
# the name its output file carries:
#
#   * state_compression — T-MEM / T-CHECK (bench_checker_scaling)
#     → BENCH_state_compression.json
#   * streaming — T-STREAM: streaming incremental checker vs batch
#     (bench_streaming) → BENCH_streaming.json
#   * env_unification — T-ENV: RealEnv abstraction cost vs the
#     direct-atomic twin (bench_model_check, BM_Env_StepOverhead_*)
#     → BENCH_env_unification.json
#   * por — T-POR: partial-order + thread-symmetry reduction: the explorer
#     {por,symmetry} grid and the checker symmetry overlap-width series
#     (bench_model_check, BM_Explore_Reduction + BM_CalChecker_OverlapWidth
#     _Sym/_Reject_Sym) → BENCH_por.json
#   * pq — T-PQ: polynomial order checker vs the enumerative engine on
#     priority-queue staircase/overlap widths and the stack/queue
#     staircases (bench_pq) → BENCH_pq.json
#   * weak_memory — T-WMM: the memory-model axis: annotated vs
#     seq_cst-forced RealEnv on the exchanger/stack hot paths, and
#     explorer SC-vs-TSO state counts (bench_weak_memory)
#     → BENCH_weak_memory.json
#   * reclaim — T-RECLAIM: the reclamation axis: ebr/hp/tagged backends
#     head-to-head on the Treiber-stack churn path (bench_reclaim)
#     → BENCH_reclaim.json
#
# e.g. `bench/run_benches.sh streaming` re-records BENCH_streaming.json
# and leaves the six other files as they are.
#
# Repetitions of different rows are interleaved in random order
# (--benchmark_enable_random_interleaving): on a shared host, rows run
# back to back in registration order read the first-registered rows
# slower.
#
# Benches are built (and, when missing, configured) in a dedicated Release
# tree: every checked-in number must come from optimized code, and each
# run is verified against the cal_build_type context stamp (see
# bench/bench_context.hpp) — the script fails if a binary reports
# anything but "release", which is how debug numbers once slipped into
# BENCH_por.json. (google-benchmark's own library_build_type field
# reflects the NDEBUG state of the *benchmark library* — a distro
# libbenchmark package pins it to "debug" regardless of this repo's
# flags, so it cannot guard the measured code.)
#
# Environment overrides:
#   BUILD_DIR      build tree containing the bench binaries (default:
#                  build-bench, configured with CMAKE_BUILD_TYPE=Release;
#                  if you point this at another tree, its binaries must
#                  still report a release build)
#   REPS           benchmark repetitions per series; the JSON keeps only the
#                  mean/median/stddev aggregates (default: 5)
#   FILTER         state-compression benchmark name regex (default: the
#                  CalChecker overlap-width series)
#   OUT            state-compression output JSON path (default:
#                  BENCH_state_compression.json in the repo root)
#   STREAM_FILTER  streaming benchmark name regex (default: BM_Streaming)
#   STREAM_OUT     streaming output JSON path (default: BENCH_streaming.json
#                  in the repo root)
#   ENV_FILTER     env-overhead benchmark name regex (default:
#                  BM_Env_StepOverhead)
#   ENV_OUT        env-overhead output JSON path (default:
#                  BENCH_env_unification.json in the repo root)
#   POR_FILTER     reduction benchmark name regex (default: the T-POR
#                  explorer {por,symmetry} grid plus the checker symmetry
#                  overlap-width series)
#   POR_OUT        reduction output JSON path (default: BENCH_por.json in
#                  the repo root)
#   PQ_FILTER      order-checker benchmark name regex (default:
#                  BM_(Pq|Stack|Queue)Checker — the order-path widths,
#                  both reject series, the engine baselines, and the
#                  stack/queue staircases)
#   PQ_OUT         priority-queue output JSON path (default: BENCH_pq.json
#                  in the repo root)
#   WMM_FILTER     weak-memory benchmark name regex (default:
#                  BM_WeakMemory — runtime hot paths and explorer counts)
#   WMM_OUT        weak-memory output JSON path (default:
#                  BENCH_weak_memory.json in the repo root)
#   RECLAIM_FILTER reclamation benchmark name regex (default:
#                  BM_Reclaim — all three backends on the stack churn)
#   RECLAIM_OUT    reclamation output JSON path (default:
#                  BENCH_reclaim.json in the repo root)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build-bench}"
REPS="${REPS:-5}"
FILTER="${FILTER:-BM_CalChecker_OverlapWidth}"
OUT="${OUT:-$ROOT/BENCH_state_compression.json}"
STREAM_FILTER="${STREAM_FILTER:-BM_Streaming}"
STREAM_OUT="${STREAM_OUT:-$ROOT/BENCH_streaming.json}"
ENV_FILTER="${ENV_FILTER:-BM_Env_StepOverhead}"
ENV_OUT="${ENV_OUT:-$ROOT/BENCH_env_unification.json}"
POR_FILTER="${POR_FILTER:-BM_Explore_Reduction|BM_CalChecker_OverlapWidth_Sym|BM_CalChecker_OverlapWidth_Reject_Sym}"
POR_OUT="${POR_OUT:-$ROOT/BENCH_por.json}"
PQ_FILTER="${PQ_FILTER:-BM_(Pq|Stack|Queue)Checker}"
PQ_OUT="${PQ_OUT:-$ROOT/BENCH_pq.json}"
WMM_FILTER="${WMM_FILTER:-BM_WeakMemory}"
WMM_OUT="${WMM_OUT:-$ROOT/BENCH_weak_memory.json}"
RECLAIM_FILTER="${RECLAIM_FILTER:-BM_Reclaim}"
RECLAIM_OUT="${RECLAIM_OUT:-$ROOT/BENCH_reclaim.json}"

ALL_SERIES=(state_compression streaming env_unification por pq weak_memory
  reclaim)

# The bench binary that runs a series.
binary_of() {
  case "$1" in
    state_compression) echo bench_checker_scaling ;;
    streaming) echo bench_streaming ;;
    env_unification | por) echo bench_model_check ;;
    pq) echo bench_pq ;;
    weak_memory) echo bench_weak_memory ;;
    reclaim) echo bench_reclaim ;;
    *) return 1 ;;
  esac
}

ensure_built() {
  if [[ ! -f "$BUILD_DIR/CMakeCache.txt" ]]; then
    cmake -B "$BUILD_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target "$@"
}

# Refuses the series unless the binary was compiled optimized: a
# debug-built bench writes "cal_build_type": "debug" into its JSON
# context (bench/bench_context.hpp), and such numbers must never be
# checked in.
check_release() {
  local out="$1"
  local type
  type="$(sed -n 's/.*"cal_build_type": *"\([^"]*\)".*/\1/p' "$out" | head -1)"
  if [[ "$type" != "release" ]]; then
    echo "error: $out reports cal_build_type=\"${type:-missing}\" (want \"release\");" >&2
    echo "       rebuild the benches with CMAKE_BUILD_TYPE=Release" >&2
    exit 1
  fi
}

run_series() {
  local bin="$1" filter="$2" out="$3"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (cmake -B \"$BUILD_DIR\" -S \"$ROOT\" -DCMAKE_BUILD_TYPE=Release && cmake --build \"$BUILD_DIR\" -j \"\$(nproc)\")" >&2
    exit 1
  fi
  "$bin" \
    --benchmark_filter="$filter" \
    --benchmark_repetitions="$REPS" \
    --benchmark_enable_random_interleaving=true \
    --benchmark_report_aggregates_only=true \
    --benchmark_out_format=json \
    --benchmark_out="$out"
  check_release "$out"
  echo "wrote $out"
}

run_named() {
  local bin="$BUILD_DIR/bench/$(binary_of "$1")"
  case "$1" in
    state_compression) run_series "$bin" "$FILTER" "$OUT" ;;
    streaming) run_series "$bin" "$STREAM_FILTER" "$STREAM_OUT" ;;
    env_unification) run_series "$bin" "$ENV_FILTER" "$ENV_OUT" ;;
    por) run_series "$bin" "$POR_FILTER" "$POR_OUT" ;;
    pq) run_series "$bin" "$PQ_FILTER" "$PQ_OUT" ;;
    weak_memory) run_series "$bin" "$WMM_FILTER" "$WMM_OUT" ;;
    reclaim) run_series "$bin" "$RECLAIM_FILTER" "$RECLAIM_OUT" ;;
  esac
}

if [[ $# -eq 0 ]]; then
  SERIES=("${ALL_SERIES[@]}")
else
  SERIES=("$@")
fi
TARGETS=()
for name in "${SERIES[@]}"; do
  if ! target="$(binary_of "$name")"; then
    echo "error: unknown series '$name' (one of: ${ALL_SERIES[*]})" >&2
    exit 2
  fi
  if [[ " ${TARGETS[*]} " != *" $target "* ]]; then
    TARGETS+=("$target")
  fi
done

ensure_built "${TARGETS[@]}"
for name in "${SERIES[@]}"; do
  run_named "$name"
done
