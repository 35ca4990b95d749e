// DatasetRepository: one front door for every dataset the system can run
// on. The paper generators (german, stackoverflow), the scalable synthetic
// workload, and file-backed CSV+DAG datasets all register here as named
// factories, so tools, benches, and tests request data by name + knobs
// instead of hard-wiring a loader. File-backed datasets come in through
// the streaming columnar ingest path (chunked_csv_reader.h), so their
// PredicateIndex starts warm.

#ifndef FAIRCAP_INGEST_REPOSITORY_H_
#define FAIRCAP_INGEST_REPOSITORY_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "causal/dag.h"
#include "dataframe/dataframe.h"
#include "ingest/chunked_csv_reader.h"
#include "mining/pattern.h"
#include "util/result.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace faircap {

/// A loaded dataset with its causal ground truth.
struct Dataset {
  std::string name;
  DataFrame df;
  CausalDag dag;
  Pattern protected_pattern;
};

/// A by-name load request. `rows`/`seed` = 0 means the dataset default;
/// everything else rides in `params` (generator-specific knobs, file
/// paths, role assignments), parsed by the factory.
struct DatasetRequest {
  std::string name;
  size_t rows = 0;
  uint64_t seed = 0;
  std::map<std::string, std::string> params;

  /// params[key] as a double, or `fallback` when absent. Malformed values
  /// error.
  Result<double> ParamDouble(const std::string& key, double fallback) const;
  /// params[key] as a string, or `fallback` when absent.
  std::string ParamString(const std::string& key,
                          const std::string& fallback = "") const;
};

/// Named dataset registry.
class DatasetRepository {
 public:
  using Factory = std::function<Result<Dataset>(const DatasetRequest&)>;

  /// Starts with the built-ins registered: "german", "stackoverflow",
  /// "synthetic", and "file" (CSV + DAG via params: path, dag, outcome,
  /// mutable, protected).
  DatasetRepository();

  /// Registers a factory; fails on duplicate names.
  Status Register(const std::string& name, std::string description,
                  Factory factory);

  bool Contains(const std::string& name) const;

  Result<Dataset> Load(const DatasetRequest& request) const;
  Result<Dataset> Load(const std::string& name) const;

  /// (name, description) pairs, sorted by name.
  std::vector<std::pair<std::string, std::string>> List() const;

  /// Process-wide instance (built-ins registered once).
  static DatasetRepository& Global();

  /// Observability for a delta append (CLI `append` verb).
  struct AppendStats {
    size_t rows = 0;     ///< delta rows appended
    size_t bytes = 0;    ///< delta CSV bytes parsed
    double seconds = 0.0;
  };

  /// Parses a delta CSV against the dataset's RESIDENT schema (same
  /// columns, same order; the streaming SWAR reader does the parsing)
  /// and appends its rows to `dataset->df` in place: dictionary-encoded
  /// columns extend with new categories interned in first-appearance
  /// order — exactly the codes a cold parse of the concatenated file
  /// would assign — the dataset's generation counter bumps, and the
  /// shared PredicateIndex extends its masks lazily by whole words on
  /// next touch instead of rebuilding.
  static Status Append(Dataset* dataset, const std::string& csv_path,
                       const IngestOptions& options = {},
                       AppendStats* stats = nullptr);

  /// Same, from CSV content held in memory (tests and small deltas).
  static Status AppendFromString(Dataset* dataset, const std::string& content,
                                 const IngestOptions& options = {},
                                 AppendStats* stats = nullptr);

  /// Parses a delta CSV against a resident schema WITHOUT appending —
  /// the IncrementalSession path, which must append through the
  /// session's own Append so every cached layer refreshes.
  static Result<DataFrame> ParseDelta(const Schema& schema,
                                      const std::string& csv_path,
                                      const IngestOptions& options = {},
                                      AppendStats* stats = nullptr);
  static Result<DataFrame> ParseDeltaFromString(
      const Schema& schema, const std::string& content,
      const IngestOptions& options = {}, AppendStats* stats = nullptr);

 private:
  struct Entry {
    std::string description;
    Factory factory;
  };
  mutable Mutex mu_;
  std::map<std::string, Entry> entries_ GUARDED_BY(mu_);
};

/// Spec for a file-backed dataset: CSV ingested through the streaming
/// reader (schema inferred), DAG from the dag_io edge-list dialect, roles
/// assigned from the outcome / mutable names, protected group from
/// attr=value equality clauses.
struct CsvDatasetSpec {
  std::string csv_path;
  std::string dag_path;
  std::string outcome;
  std::vector<std::string> mutable_attrs;
  /// Conjunction of attr=value equalities defining the protected group.
  std::vector<std::pair<std::string, std::string>> protected_clauses;
  IngestOptions ingest;
};

/// Loads a file-backed dataset through the streaming ingest path.
Result<Dataset> LoadCsvDataset(const CsvDatasetSpec& spec);

}  // namespace faircap

#endif  // FAIRCAP_INGEST_REPOSITORY_H_
