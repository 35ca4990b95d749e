// perfbench workloads: which dataset each runs, the FairCap options it
// runs under, and the seeded input files it reads. Inputs are generated by
// a separate `perfbench gen` process, outside every timed section, and the
// measuring process receives only the files: a CSV table, its DAG, the
// delta CSVs, the column roles and (cold workloads) the reference digest.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "causal/dag.h"
#include "core/faircap.h"
#include "dataframe/dataframe.h"
#include "digest.h"
#include "mining/pattern.h"
#include "util/result.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  /// Generator: "stackoverflow" (MakeStackOverflow) or "synthetic"
  /// (MakeSynthetic).
  std::string dataset;
  /// Synthetic only: round the outcome to integers (the int64 path).
  bool integer_outcome = false;
  /// Ops are append ops (delta parse + Append + warm Run) instead of cold
  /// ops (ingest + Create + Run).
  bool append = false;
  /// Rows of table.csv: the cold op's table, or the append base.
  size_t table_rows = 0;
  /// Rows per delta CSV, and how many deltas follow the table. Cold
  /// workloads get one delta, used only by the traced run's append probe.
  size_t delta_rows = 0;
  size_t num_deltas = 0;
  /// Set-ups per untraced cold op (the last table is the one run), for
  /// enough set-up samples where ingest is short.
  size_t setup_repeats = 1;
  /// Pipeline options, threads included.
  faircap::FairCapOptions options;
};

/// The workload named `name`, or NotFound.
faircap::Result<WorkloadSpec> FindWorkload(const std::string& name);

/// Column roles and the protected group, as the CLI takes them.
struct Roles {
  std::string outcome;
  std::vector<std::string> mutable_attrs;
  std::string protected_attr;
  std::string protected_value;
};

/// Input file names inside a workload's input directory.
std::string TablePath(const std::string& dir);
std::string DagPath(const std::string& dir);
std::string DeltaPath(const std::string& dir, size_t index);

/// The roles file and (cold workloads) the reference digest that
/// GenerateInputs wrote into `dir`.
faircap::Result<Roles> ReadRoles(const std::string& dir);
faircap::Result<Digest> ReadReferenceDigest(const std::string& dir);

/// Generates the workload's inputs for `seed` into `dir` (which must
/// exist): table, DAG, deltas, roles and, for cold workloads, the
/// reference digest of a run through the repository's file loader.
faircap::Status GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                               const std::string& dir);

/// A table streamed in the way `faircap_cli run --data=...` loads it.
struct LoadedTable {
  faircap::DataFrame df;
  faircap::CausalDag dag;
  faircap::Pattern protected_pattern;
  double infer_seconds = 0.0;  ///< InferCsvSchema
  double parse_seconds = 0.0;  ///< StreamCsv
};

/// InferCsvSchema + StreamCsv (each timed) + roles + ReadDagFile. The
/// caller times the whole call as set-up.
faircap::Result<LoadedTable> LoadTable(const std::string& csv_path,
                                       const std::string& dag_path,
                                       const Roles& roles);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
