#!/usr/bin/env bash
# Runs the recorded trajectory benches and writes the numbers the
# acceptance criteria track (google-benchmark JSON format):
#   BENCH_join_dedup.json      — fused join dedup vs the seed path
#   BENCH_columnar_scan.json   — columnar Ω vs row-major storage
#   BENCH_stats_ablation.json  — stats-driven cardinality vs seed constants
#   BENCH_wcoj.json            — triangle/diamond motifs, binary joins vs
#                                MultiwayExpand (worst-case-optimal)
#   BENCH_storage.json         — GraphSnapshot label spans / typed columns
#                                vs the PPG map-walk read path, plus
#                                arena persistence: save / load / mmap
#                                vs re-freeze at SNB 2k and 20k persons
#   BENCH_paths.json           — path kernels over a frozen snapshot:
#                                per-source spec vs batched 64-lane waves,
#                                forward fixpoint vs bidirectional probe,
#                                parallelism 1 and max
#   BENCH_serving.json         — concurrent session serving: SNB query mix
#                                QPS + p50/p95/p99, cold vs warm plan
#                                cache, 1/2/max threads
#   BENCH_expr.json            — vectorized expression kernels vs the
#                                row-at-a-time evaluator: arithmetic WHERE,
#                                3-conjunct AND, computed projection at
#                                SNB 2k/20k, single-threaded
# Extra arguments pass through to every bench binary, e.g.
#   scripts/run_bench.sh --benchmark_filter='BM_ColumnarScan.*'
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S . >/dev/null
cmake --build build --target bench_join_dedup bench_columnar_scan \
  bench_baseline_ablation bench_wcoj bench_storage bench_path_finding \
  bench_serving bench_expr -j

run_bench() {
  local binary="$1" out="$2"
  shift 2
  "./build/${binary}" \
    --benchmark_format=json \
    --benchmark_out="${out}" \
    --benchmark_out_format=json \
    --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=true \
    "$@"
}

run_bench bench_join_dedup BENCH_join_dedup.json "$@"
run_bench bench_columnar_scan BENCH_columnar_scan.json "$@"
run_bench bench_wcoj BENCH_wcoj.json "$@"
run_bench bench_storage BENCH_storage.json "$@"
run_bench bench_path_finding BENCH_paths.json "$@"
run_bench bench_serving BENCH_serving.json "$@"
run_bench bench_expr BENCH_expr.json "$@"
# The stats filter comes last: google-benchmark honors the final
# --benchmark_filter, so a user-passed filter cannot swap which
# benchmarks land in BENCH_stats_ablation.json.
run_bench bench_baseline_ablation BENCH_stats_ablation.json "$@" \
  --benchmark_filter='BM_Stats.*'
