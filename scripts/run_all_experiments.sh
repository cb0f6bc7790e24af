#!/usr/bin/env bash
# Run every paper-reproduction harness in sequence (release mode).
# Each binary prints its figure/table series and asserts the qualitative
# claims, so a clean exit here means every shape check passed.
set -euo pipefail
cd "$(dirname "$0")/.."

BINS=(
  fig16_query_diurnal
  fig17_error_rate
  table2_hit_miss_latency
  miss_path
  fig18_cache_hit_memory
  fig19_write_diurnal
  ablation_isolation
  memory_growth_year
  ablation_sharded_lru
  ablation_compaction
  baseline_lambda_compare
  baseline_preagg_compare
  freshness_e2e
  quota_enforcement
  candidate_ranking
  shard_handoff
  crash_torture
  fairness
  blocking_fanout
)

cargo build --release -p ips-bench --bins

for bin in "${BINS[@]}"; do
  echo
  echo ">>> $bin"
  "./target/release/$bin"
done

echo
# JSON artefact gate: every BENCH_*.json a harness wrote must parse, so a
# half-written or malformed artefact fails the run instead of poisoning
# downstream dashboards.
for artefact in BENCH_*.json; do
  [ -e "$artefact" ] || continue
  python3 -m json.tool "$artefact" > /dev/null || {
    echo "malformed JSON artefact: $artefact" >&2
    exit 1
  }
  echo "json ok: $artefact"
done

echo
echo "All ${#BINS[@]} experiment harnesses passed."
