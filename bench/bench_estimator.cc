// Estimation-at-scale harness: legacy 3-call CATE evaluation (overall +
// protected + non-protected, each a full design-matrix/stratum pass) vs
// the batch sufficient-statistics engine (one pass + three small solves)
// on synthetic workloads, plus the end-to-end pipeline delta.
//
//   bench_estimator [--rows=N] [--full] [--threads=T] [--json=PATH]
//
// Default runs 100K rows (CI smoke uses --rows=20000); --full adds the
// 1M-row acceptance configuration, where the batch path must come out
// >= 2x the legacy 3-call path per treatment evaluation.
//
// --json switches to the batch-only per-ISA sweep: the same treatment
// evaluations through the batch engine at every SIMD kernel tier this
// host supports (the legacy path is skipped — at 1M rows on one core it
// dominates the runtime without informing the kernel comparison), and
// writes the per-tier record CI archives alongside BENCH_micro.json.

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

struct MethodRow {
  const char* name;
  size_t evals = 0;
  double legacy_seconds = 0.0;
  double batch_seconds = 0.0;
  double speedup() const {
    return batch_seconds > 0.0 ? legacy_seconds / batch_seconds : 0.0;
  }
};

// One treatment evaluation the way Step-2 mining does it: overall CATE
// within the group plus the protected / non-protected subgroup CATEs.
void LegacyEvaluate(const CateEstimator& est, const Pattern& intervention,
                    const Bitmap& group, const Bitmap& protected_mask) {
  (void)est.Estimate(intervention, group);
  Bitmap prot = group & protected_mask;
  if (prot.Count() > 0) {
    (void)est.Estimate(intervention, prot, 5);
  }
  Bitmap nonprot = group;
  nonprot.AndNot(protected_mask);
  if (nonprot.Count() > 0) {
    (void)est.Estimate(intervention, nonprot, 5);
  }
}

int RunScale(size_t rows, size_t threads, bool run_ipw) {
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
  std::printf("%-12s %10s %14s %14s %9s\n", "method", "evals", "legacy_us",
              "batch_us", "speedup");

  std::vector<std::pair<const char*, CateMethod>> methods = {
      {"regression", CateMethod::kRegression},
      {"stratified", CateMethod::kStratified},
  };
  if (run_ipw) methods.push_back({"ipw", CateMethod::kIpw});

  for (const auto& [name, method] : methods) {
    CateOptions options;
    options.method = method;
    MethodRow row;
    row.name = name;

    // Fresh estimators per path so neither benefits from the other's warm
    // caches; both share the DataFrame's PredicateIndex (treatment masks
    // are memoized for the whole table either way).
    auto legacy_est = CateEstimator::Create(&df, &data->dag, options);
    auto batch_est = CateEstimator::Create(&df, &data->dag, options);
    if (!legacy_est.ok() || !batch_est.ok()) {
      std::cerr << "estimator: " << legacy_est.status().ToString() << "\n";
      return 1;
    }

    StopWatch watch;
    for (const Pattern& intervention : interventions) {
      for (const Bitmap& group : groups) {
        LegacyEvaluate(*legacy_est, intervention, group, protected_mask);
        ++row.evals;
      }
    }
    row.legacy_seconds = watch.ElapsedSeconds();

    watch.Restart();
    for (const Pattern& intervention : interventions) {
      for (const Bitmap& group : groups) {
        (void)batch_est->EstimateSubgroups(intervention, group,
                                           &protected_mask, 5);
      }
    }
    row.batch_seconds = watch.ElapsedSeconds();

    std::printf("%-12s %10zu %14.1f %14.1f %8.1fx\n", row.name, row.evals,
                1e6 * row.legacy_seconds / static_cast<double>(row.evals),
                1e6 * row.batch_seconds / static_cast<double>(row.evals),
                row.speedup());
  }

  // End-to-end pipeline: the same FairCap configuration with the legacy
  // per-call estimator vs the batch engine (fairness active so every
  // treatment evaluation needs all three subgroup estimates).
  FairCapOptions options;
  options.apriori.min_support_fraction = 0.3;
  options.apriori.max_pattern_length = 2;
  options.lattice.max_predicates = 1;
  options.fairness = FairnessConstraint::GroupSP(1e9);
  options.num_threads = threads;

  double pipe_seconds[2] = {0.0, 0.0};
  size_t pipe_rules[2] = {0, 0};
  for (int use_batch = 0; use_batch <= 1; ++use_batch) {
    options.use_batch_estimator = use_batch == 1;
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
    pipe_seconds[use_batch] =
        obs::MetricsRegistry::Global().GaugeValue(obs::kPhaseTotal);
    pipe_rules[use_batch] = result->rules.size();
  }
  std::printf(
      "pipeline     legacy pipe_s=%.3f  batch pipe_s=%.3f  speedup=%.2fx  "
      "(rules %zu/%zu)\n\n",
      pipe_seconds[0], pipe_seconds[1],
      pipe_seconds[1] > 0.0 ? pipe_seconds[0] / pipe_seconds[1] : 0.0,
      pipe_rules[0], pipe_rules[1]);
  if (pipe_rules[0] != pipe_rules[1]) {
    std::cerr << "FAIL: legacy and batch pipelines selected different "
                 "ruleset sizes\n";
    return 1;
  }
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
    // The legacy per-row IPW at 1M rows takes minutes per treatment;
    // keep the IPW comparison to the smaller configurations.
    const bool run_ipw = rows <= 200000;
    const int rc = RunScale(rows, flags.threads, run_ipw);
    if (rc != 0) return rc;
  }
  return 0;
}
