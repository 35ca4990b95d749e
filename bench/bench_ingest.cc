// Ingest-at-scale harness: synthetic workload generation -> CSV on disk ->
// schema inference (InferCsvSchema, the pass a file load runs first) and
// streaming columnar ingest (rows/sec), then the full FairCap pipeline on
// the streamed table with its warm-started, budget-capped PredicateIndex.
//
//   bench_ingest [--rows=N] [--full] [--threads=T] [--budget-mb=M]
//
// Default sweeps small row counts (CI smoke); --full runs the 1M-row
// configuration.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/faircap.h"
#include "dataframe/csv.h"
#include "dataframe/predicate_index.h"
#include "ingest/chunked_csv_reader.h"
#include "ingest/synthetic.h"
#include "util/timer.h"

using namespace faircap;

namespace {

std::string TempCsvPath() {
  const char* tmpdir = std::getenv("TMPDIR");
  std::string dir = tmpdir != nullptr ? tmpdir : "/tmp";
  return dir + "/faircap_bench_ingest.csv";
}

struct IngestRow {
  size_t rows = 0;
  double generate_seconds = 0.0;
  double infer_seconds = 0.0;
  IngestStats stream;
  double pipeline_seconds = 0.0;
  size_t pipeline_rules = 0;
  PredicateIndex::CacheStats index;
};

int RunOne(size_t rows, size_t threads, size_t budget_bytes, IngestRow* out) {
  out->rows = rows;

  SyntheticConfig config;
  config.num_rows = rows;
  config.seed = 13;
  StopWatch watch;
  auto data = MakeSynthetic(config);
  if (!data.ok()) {
    std::cerr << "generate: " << data.status().ToString() << "\n";
    return 1;
  }
  out->generate_seconds = watch.ElapsedSeconds();

  const std::string path = TempCsvPath();
  const Status written = WriteCsv(data->df, path);
  if (!written.ok()) {
    std::cerr << "write: " << written.ToString() << "\n";
    return 1;
  }
  const Schema& schema = data->df.schema();

  // Interleaved repetitions, best-of-N per pass: the first pass pays
  // one-off page-fault and file-cache costs that are not reader work, and
  // interleaving cancels machine-load drift.
  constexpr int kReps = 3;
  out->infer_seconds = 1e300;
  double stream_best = 1e300;
  Result<DataFrame> streamed = Status::Internal("unset");
  for (int rep = 0; rep < kReps; ++rep) {
    watch.Restart();
    const auto inferred = InferCsvSchema(path);
    if (!inferred.ok()) {
      std::cerr << "infer: " << inferred.status().ToString() << "\n";
      return 1;
    }
    out->infer_seconds = std::min(out->infer_seconds, watch.ElapsedSeconds());
    for (size_t c = 0; c < schema.num_attributes(); ++c) {
      if (inferred->attribute(c).type != schema.attribute(c).type) {
        std::cerr << "inferred type mismatch in column " << c << "\n";
        return 1;
      }
    }

    IngestStats stats;
    streamed = StreamCsv(path, schema, IngestOptions(), &stats);
    if (!streamed.ok()) {
      std::cerr << "stream read: " << streamed.status().ToString() << "\n";
      return 1;
    }
    if (streamed->num_rows() != rows) {
      std::cerr << "streamed row count mismatch\n";
      return 1;
    }
    if (stats.seconds < stream_best) {
      stream_best = stats.seconds;
      out->stream = stats;
    }
  }
  std::remove(path.c_str());

  // Full pipeline on the streamed table: warm index, byte budget.
  DataFrame df = std::move(streamed).ValueOrDie();
  df.predicate_index().SetMemoryBudget(budget_bytes);

  FairCapOptions options;
  options.apriori.min_support_fraction = 0.3;
  options.apriori.max_pattern_length = 2;
  options.lattice.max_predicates = 1;
  options.fairness = FairnessConstraint::GroupSP(1e9);
  options.num_threads = threads;
  auto solver = FairCap::Create(&df, &data->dag, data->protected_pattern,
                                options);
  if (!solver.ok()) {
    std::cerr << "pipeline: " << solver.status().ToString() << "\n";
    return 1;
  }
  watch.Restart();
  auto result = solver->Run();
  if (!result.ok()) {
    std::cerr << "pipeline: " << result.status().ToString() << "\n";
    return 1;
  }
  out->pipeline_seconds = watch.ElapsedSeconds();
  out->pipeline_rules = result->rules.size();
  out->index = df.predicate_index().GetStats();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchFlags flags = bench::BenchFlags::Parse(argc, argv);
  size_t budget_mb = 64;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--budget-mb=", 12) == 0) {
      budget_mb = static_cast<size_t>(std::atoll(argv[i] + 12));
    }
  }

  std::vector<size_t> row_counts;
  if (flags.rows != 0) {
    row_counts = {flags.rows};
  } else if (flags.full) {
    row_counts = {100000, 1000000};
  } else {
    row_counts = {20000, 50000};
  }

  std::printf("%9s %8s %9s %9s %11s %9s %6s %9s %9s\n", "rows", "gen_s",
              "infer_s", "stream_s", "stream_r/s", "warm_mask", "rules",
              "pipe_s", "evicted");
  for (const size_t rows : row_counts) {
    IngestRow row;
    if (RunOne(rows, flags.threads, budget_mb * 1024 * 1024, &row) != 0) {
      return 1;
    }
    std::printf("%9zu %8.2f %9.3f %9.3f %10.2fM %9zu %6zu %9.2f %9zu\n",
                row.rows, row.generate_seconds, row.infer_seconds,
                row.stream.seconds, row.stream.RowsPerSecond() / 1e6,
                row.stream.warm_atom_masks, row.pipeline_rules,
                row.pipeline_seconds, row.index.evictions);
  }
  return 0;
}
