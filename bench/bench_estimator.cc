// Estimation-at-scale harness: per-treatment evaluation cost of the batch
// sufficient-statistics engine (overall + protected + non-protected CATE
// from one pass and three small solves) on synthetic workloads, plus the
// end-to-end pipeline time.
//
//   bench_estimator [--rows=N] [--full] [--threads=T] [--json=PATH]
//
// Default runs 100K rows (CI smoke uses --rows=20000); --full adds the
// 1M-row configuration.
//
// --json switches to the per-ISA sweep: the same treatment evaluations
// through the batch engine at every SIMD kernel tier this host supports,
// and writes the per-tier record CI archives alongside BENCH_micro.json.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "causal/cate_stats_engine.h"
#include "core/faircap.h"
#include "ingest/synthetic.h"
#include "mining/lattice.h"
#include "util/obs/metrics.h"
#include "util/obs/run_report.h"
#include "util/simd/simd.h"
#include "util/timer.h"

using namespace faircap;

namespace {

int RunScale(size_t rows, size_t threads) {
  SyntheticConfig config;
  config.num_rows = rows;
  config.seed = 13;
  auto data = MakeSynthetic(config);
  if (!data.ok()) {
    std::cerr << "generate: " << data.status().ToString() << "\n";
    return 1;
  }
  const DataFrame& df = data->df;
  const Bitmap protected_mask = data->protected_pattern.Evaluate(df);

  // The treatments Step-2 would enumerate, evaluated against two groups
  // (the whole population and one immutable slice) so the per-treatment
  // engine amortizes across rules like it does in mining.
  const std::vector<size_t> mutables =
      df.schema().IndicesWithRole(AttrRole::kMutable);
  const std::vector<Predicate> atoms =
      EnumerateInterventionAtoms(df, mutables);
  std::vector<Pattern> interventions;
  for (const Predicate& atom : atoms) {
    interventions.push_back(Pattern({atom}));
  }
  std::vector<Bitmap> groups;
  groups.push_back(df.AllRows());
  const std::vector<size_t> immutables =
      df.schema().IndicesWithRole(AttrRole::kImmutable);
  for (size_t attr : immutables) {
    const Column& col = df.column(attr);
    if (col.type() == AttrType::kCategorical && col.num_categories() > 0) {
      groups.push_back(
          Pattern({Predicate(attr, CompareOp::kEq, Value(col.CategoryName(0)))})
              .Evaluate(df));
      break;
    }
  }

  std::printf("rows=%zu  treatments=%zu  groups=%zu\n", rows,
              interventions.size(), groups.size());
  std::printf("%-12s %10s %14s\n", "method", "evals", "batch_us");

  for (const auto& [name, method] :
       std::vector<std::pair<const char*, CateMethod>>{
           {"regression", CateMethod::kRegression},
           {"stratified", CateMethod::kStratified},
           {"ipw", CateMethod::kIpw}}) {
    CateOptions options;
    options.method = method;
    auto est = CateEstimator::Create(&df, &data->dag, options);
    if (!est.ok()) {
      std::cerr << "estimator: " << est.status().ToString() << "\n";
      return 1;
    }
    StopWatch watch;
    size_t evals = 0;
    for (const Pattern& intervention : interventions) {
      for (const Bitmap& group : groups) {
        (void)est->EstimateSubgroups(intervention, group, &protected_mask, 5);
        ++evals;
      }
    }
    std::printf("%-12s %10zu %14.1f\n", name, evals,
                1e6 * watch.ElapsedSeconds() / static_cast<double>(evals));
  }

  // End-to-end pipeline with fairness active, so every treatment
  // evaluation needs all three subgroup estimates.
  FairCapOptions options;
  options.apriori.min_support_fraction = 0.3;
  options.apriori.max_pattern_length = 2;
  options.lattice.max_predicates = 1;
  options.fairness = FairnessConstraint::GroupSP(1e9);
  options.num_threads = threads;
  auto solver =
      FairCap::Create(&df, &data->dag, data->protected_pattern, options);
  if (!solver.ok()) {
    std::cerr << "pipeline: " << solver.status().ToString() << "\n";
    return 1;
  }
  auto result = solver->Run();
  if (!result.ok()) {
    std::cerr << "pipeline run: " << result.status().ToString() << "\n";
    return 1;
  }
  // Phase timing from the run report's registry gauge — the same
  // production number `faircap_cli run --metrics-json` serializes — so
  // the bench has no private stopwatch that could drift from it.
  std::printf("pipeline     pipe_s=%.3f  rules=%zu\n\n",
              obs::MetricsRegistry::Global().GaugeValue(obs::kPhaseTotal),
              result->rules.size());
  return 0;
}

// Dominant accumulation path during a bench pass, read from the public
// estimation.accumulate_path_* counter deltas (no bench-private
// instrumentation inside the engine).
std::string DominantPath(const uint64_t before[2]) {
  const obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const uint64_t d_int =
      reg.CounterValue("estimation.accumulate_path_int") - before[0];
  const uint64_t d_fp =
      reg.CounterValue("estimation.accumulate_path_sparse") - before[1];
  return d_int >= d_fp && d_int > 0 ? "int-fast" : "fp";
}

// Batch-only per-ISA sweep (--json): the same treatment x group
// evaluations through the batch engine under each supported SIMD tier,
// on both a real-valued and an integer-valued outcome so the sweep
// covers the FP and exact int64 accumulation paths. One untimed
// warm-up pass per tier fills the engine/partition caches so tiers
// compare kernel throughput, not cache luck.
int RunSimdSweep(size_t rows, const std::string& json_path) {
  struct TierRow {
    std::string simd;
    std::string method;
    std::string outcome_dtype;
    std::string accumulate_path;
    size_t evals = 0;
    double us_per_eval = 0.0;
  };
  std::vector<TierRow> results;

  for (const bool integer_outcome : {false, true}) {
    SyntheticConfig config;
    config.num_rows = rows;
    config.seed = 13;
    config.integer_outcome = integer_outcome;
    auto data = MakeSynthetic(config);
    if (!data.ok()) {
      std::cerr << "generate: " << data.status().ToString() << "\n";
      return 1;
    }
    const DataFrame& df = data->df;
    const Bitmap protected_mask = data->protected_pattern.Evaluate(df);
    const std::vector<size_t> mutables =
        df.schema().IndicesWithRole(AttrRole::kMutable);
    const std::vector<Predicate> atoms =
        EnumerateInterventionAtoms(df, mutables);
    std::vector<Pattern> interventions;
    for (const Predicate& atom : atoms) {
      interventions.push_back(Pattern({atom}));
    }
    const Bitmap all = df.AllRows();
    const char* dtype = integer_outcome ? "integer" : "real";

    std::printf("rows=%zu  treatments=%zu  outcome=%s  (batch engine)\n",
                rows, interventions.size(), dtype);
    std::printf("%-12s %-8s %-8s %-10s %10s %14s\n", "method", "simd",
                "dtype", "path", "evals", "batch_us");
    for (const auto& [name, method] : std::vector<
             std::pair<const char*, CateMethod>>{
             {"regression", CateMethod::kRegression},
             {"stratified", CateMethod::kStratified}}) {
      CateOptions options;
      options.method = method;
      auto est = CateEstimator::Create(&df, &data->dag, options);
      if (!est.ok()) {
        std::cerr << "estimator: " << est.status().ToString() << "\n";
        return 1;
      }
      for (const simd::SimdLevel level : simd::SupportedSimdLevels()) {
        simd::ScopedSimdLevel pin(level);
        for (int timed = 0; timed <= 1; ++timed) {
          const obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
          const uint64_t path_before[2] = {
              reg.CounterValue("estimation.accumulate_path_int"),
              reg.CounterValue("estimation.accumulate_path_sparse")};
          StopWatch watch;
          size_t evals = 0;
          for (const Pattern& intervention : interventions) {
            (void)est->EstimateSubgroups(intervention, all, &protected_mask,
                                         5);
            ++evals;
          }
          if (timed == 0) continue;  // warm-up pass
          TierRow row;
          row.simd = simd::SimdLevelName(level);
          row.method = name;
          row.outcome_dtype = dtype;
          row.accumulate_path = DominantPath(path_before);
          row.evals = evals;
          row.us_per_eval =
              1e6 * watch.ElapsedSeconds() / static_cast<double>(evals);
          std::printf("%-12s %-8s %-8s %-10s %10zu %14.1f\n", name,
                      row.simd.c_str(), dtype, row.accumulate_path.c_str(),
                      evals, row.us_per_eval);
          results.push_back(std::move(row));
        }
      }
    }
  }

  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "cannot open '" << json_path << "' for writing\n";
    return 1;
  }
  out << "{\"bench\":\"estimator_simd\",\"rows\":" << rows
      << ",\"host_max_simd\":\""
      << simd::SimdLevelName(simd::MaxSupportedSimdLevel())
      << "\",\"results\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    const TierRow& r = results[i];
    out << (i == 0 ? "" : ",") << "{\"method\":\"" << r.method
        << "\",\"simd\":\"" << r.simd << "\",\"outcome_dtype\":\""
        << r.outcome_dtype << "\",\"accumulate_path\":\""
        << r.accumulate_path << "\",\"evals\":" << r.evals
        << ",\"us_per_eval\":" << r.us_per_eval << "}";
  }
  out << "]}\n";
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchFlags flags = bench::BenchFlags::Parse(argc, argv);
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }
  std::vector<size_t> row_counts;
  if (flags.rows > 0) {
    row_counts.push_back(flags.rows);
  } else {
    row_counts.push_back(100000);
    if (flags.full) row_counts.push_back(1000000);
  }
  if (!json_path.empty()) {
    return RunSimdSweep(row_counts.back(), json_path);
  }
  for (size_t rows : row_counts) {
    const int rc = RunScale(rows, flags.threads);
    if (rc != 0) return rc;
  }
  return 0;
}
