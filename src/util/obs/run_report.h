// Machine-readable run report: one stable JSON schema that serializes the
// full metrics registry plus per-phase wall times — the paper's Figure-3
// per-step runtime breakdown, produced by the production path (FairCap
// sets the phase.* gauges as it runs) instead of bench-only stopwatch
// code. `faircap_cli run --metrics-json=FILE` writes it; perfbench and the
// CI observability smoke read phase timings and cache stats from the same
// registry the library incremented, so there is no second bookkeeping
// path to drift.
//
// Schema (v1) — top-level keys, all always present:
//   {
//     "schema": "faircap.run_report.v1",
//     "phase":        { "<phase>_seconds": <double>, ... },
//     "scheduler":    { workers, instances, executed },
//     "index_cache":  { hits, misses, evictions, atom_evictions,
//                       warm_atom_masks, atom_bytes, conjunction_bytes,
//                       numeric_order_bytes },
//     "engine_cache": { hits, misses, evictions, bytes },
//     "ingest":       { runs, rows, bytes, chunks, segments,
//                       infer_runs, infer_bytes, infer_quoted_records },
//     "simd":         { level, level_name },
//     "estimation":   { batch_evals, partition_builds, solve_regression,
//                       solve_stratified, solve_ipw_cells, solve_ipw_rows,
//                       accumulate_path_sparse, table_passes,
//                       compact_views, compact_evals },
//     "mining":       { lattice_evaluations, pattern_tasks, ... }
//   }
// Extra metrics registered by future subsystems appear as extra keys /
// sections; the keys above are the floor, pinned by tests/obs_test.cc.

#ifndef FAIRCAP_UTIL_OBS_RUN_REPORT_H_
#define FAIRCAP_UTIL_OBS_RUN_REPORT_H_

#include <iosfwd>
#include <string>

#include "util/status.h"

namespace faircap {
namespace obs {

/// Phase-gauge names (the "phase." prefix groups them into the report's
/// "phase" section). FairCap::Run sets the three step gauges and total;
/// callers that load a table first set kPhaseIngest (parsed from a file)
/// or kPhaseGenerate (sampled from a dataset generator).
inline constexpr const char* kPhaseIngest = "phase.ingest_seconds";
inline constexpr const char* kPhaseGenerate = "phase.generate_seconds";
inline constexpr const char* kPhaseGroupMining = "phase.group_mining_seconds";
inline constexpr const char* kPhaseTreatmentMining =
    "phase.treatment_mining_seconds";
inline constexpr const char* kPhaseSelection = "phase.selection_seconds";
inline constexpr const char* kPhaseTotal = "phase.total_seconds";

/// Registers the schema-floor metrics (zero-valued if never incremented)
/// so every run report carries the full v1 key set no matter which
/// subsystems actually ran. Idempotent and cheap; the report writer calls
/// it, and subsystems that increment these same names simply resolve the
/// already-registered handles.
void EnsureStandardMetricsRegistered();

/// Writes the run report JSON (schema above) from the global registry.
void WriteRunReport(std::ostream& out);

/// WriteRunReport to a file.
Status WriteRunReportFile(const std::string& path);

}  // namespace obs
}  // namespace faircap

#endif  // FAIRCAP_UTIL_OBS_RUN_REPORT_H_
