#include "util/obs/run_report.h"

#include <fstream>
#include <ostream>
#include <sstream>

#include "util/obs/metrics.h"
#include "util/simd/simd.h"

namespace faircap {
namespace obs {

namespace {

/// The v1 schema floor. Every name here exists (possibly zero-valued) in
/// every report, so downstream parsers — CI validation, the bench
/// harnesses, dashboards — can index unconditionally.
constexpr const char* kStandardCounters[] = {
    "scheduler.instances",
    // Indices claimed by pool workers and ParallelFor callers.
    "scheduler.executed",
    "index_cache.hits",
    "index_cache.misses",
    "index_cache.evictions",
    "index_cache.atom_evictions",
    "index_cache.warm_atom_masks",
    "engine_cache.hits",
    "engine_cache.misses",
    "engine_cache.evictions",
    "ingest.runs",
    "ingest.rows",
    "ingest.bytes",
    "ingest.chunks",
    "ingest.segments",
    // Schema inference (InferCsvSchema): passes, bytes read, and records
    // that took the escape-aware path (quotes, extra cells, last line).
    "ingest.infer_runs",
    "ingest.infer_bytes",
    "ingest.infer_quoted_records",
    "estimation.batch_evals",
    // ConfounderPartition::Build calls: cold partitions, one per
    // adjustment set (extensions count under append.partitions_extended).
    "estimation.partition_builds",
    "estimation.solve_regression",
    "estimation.solve_stratified",
    "estimation.solve_ipw_cells",
    "estimation.solve_ipw_rows",
    // Evaluations served by a table pass, and the table row passes that
    // served them: a fused pass serves up to four evaluations of one
    // partition, so table_passes <= accumulate_path_sparse.
    "estimation.accumulate_path_sparse",
    "estimation.table_passes",
    // Step 2's compacted groups (causal/cate_stats_engine.h CompactGroup):
    // partitions bound to a gathered group, evaluations read from one,
    // and the fused passes that read them (up to four evaluations each,
    // so compact_passes <= compact_evals). compact_evals +
    // accumulate_path_sparse = batch_evals, the evaluations of a run
    // without an incremental state.
    "estimation.compact_views",
    "estimation.compact_evals",
    "estimation.compact_passes",
    "mining.lattice_evaluations",
    "mining.pattern_tasks",
    // Per-treatment row updates: a fused pass counts each row once per
    // treatment it serves.
    "simd.cate_accumulate_rows",
    // Incremental append + delta-aware re-mining (core/incremental.h,
    // dataframe/predicate_index.h, causal/estimator.h).
    "append.rows_appended",
    "append.batches",
    "append.masks_extended",
    "append.masks_rebuilt",
    "append.orders_merged",
    "append.partitions_extended",
    "append.partitions_rebuilt",
    "append.engines_extended",
    "append.engines_rebuilt",
    "append.patterns_reused",
    "append.patterns_rechecked",
    "append.evals_cached",
    "append.evals_delta",
    "append.evals_full",
    "append.full_remines",
};

constexpr const char* kStandardGauges[] = {
    kPhaseIngest,
    kPhaseGenerate,
    kPhaseGroupMining,
    kPhaseTreatmentMining,
    kPhaseSelection,
    kPhaseTotal,
    "scheduler.workers",
    "index_cache.atom_bytes",
    "index_cache.conjunction_bytes",
    "index_cache.numeric_order_bytes",
    "engine_cache.bytes",
    "simd.level",
};

}  // namespace

void EnsureStandardMetricsRegistered() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  for (const char* name : kStandardCounters) registry.GetCounter(name);
  for (const char* name : kStandardGauges) registry.GetGauge(name);
}

void WriteRunReport(std::ostream& out) {
  EnsureStandardMetricsRegistered();
  MetricsRegistry& registry = MetricsRegistry::Global();
  // The tier is read from the dispatcher, not from the gauge: a registry
  // Reset zeroes the gauge (kScalar) while the pinned tier keeps running.
  const simd::SimdLevel level = simd::ActiveSimdLevel();
  registry.GetGauge("simd.level").Set(static_cast<double>(level));
  // Body: the registry's section-grouped JSON, with the schema marker and
  // the human-readable SIMD tier name spliced in. The registry output is
  // "{...}"; splice after the opening brace so "schema" leads and the
  // "simd" section (guaranteed present by the floor above) gains
  // "level_name" next to its numeric "level".
  std::ostringstream body;
  registry.WriteJson(body);
  std::string json = body.str();
  const std::string simd_key = "\"simd\":{";
  const size_t simd_at = json.find(simd_key);
  if (simd_at != std::string::npos) {
    json.insert(simd_at + simd_key.size(),
                std::string("\"level_name\":\"") +
                    simd::SimdLevelName(level) + "\",");
  }
  out << "{\"schema\":\"faircap.run_report.v1\"," << json.substr(1);
}

Status WriteRunReportFile(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument("cannot open '" + path + "' for writing");
  }
  WriteRunReport(out);
  out << "\n";
  if (!out) return Status::Internal("write failed for '" + path + "'");
  return Status::OK();
}

}  // namespace obs
}  // namespace faircap
