// Component microbenchmarks (google-benchmark): bitmap set algebra,
// pattern evaluation, Apriori mining, CATE estimation, ruleset statistics
// and greedy selection. These back the runtime claims of Section 7.3 at
// the component level.
//
//   bench_micro [google-benchmark flags]
//   bench_micro --simd-sweep [--json=PATH]
//
// --simd-sweep bypasses google-benchmark and times the runtime-dispatched
// SIMD kernel tiers directly — every kernel at every ISA level this host
// supports, on 1M-bit / 1M-row inputs — and (with --json) writes the
// per-tier throughput record CI archives as BENCH_micro.json.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "causal/cate_stats_engine.h"
#include "causal/estimator.h"
#include "core/greedy.h"
#include "data/stackoverflow.h"
#include "mining/apriori.h"
#include "util/simd/simd.h"

namespace faircap {
namespace {

const StackOverflowData& SharedData() {
  static const StackOverflowData* data = [] {
    StackOverflowConfig config;
    config.num_rows = 10000;
    auto result = MakeStackOverflow(config);
    return new StackOverflowData(std::move(result).ValueOrDie());
  }();
  return *data;
}

void BM_BitmapAnd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Bitmap a(n), b(n);
  for (size_t i = 0; i < n; i += 3) a.Set(i);
  for (size_t i = 0; i < n; i += 5) b.Set(i);
  for (auto _ : state) {
    Bitmap c = a & b;
    benchmark::DoNotOptimize(c.Count());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_BitmapAnd)->Arg(10000)->Arg(100000)->Arg(1000000);

Pattern SharedPattern(const StackOverflowData& data) {
  const size_t country = *data.df.schema().IndexOf("Country");
  const size_t age = *data.df.schema().IndexOf("AgeGroup");
  return Pattern({Predicate(country, CompareOp::kEq, Value("us")),
                  Predicate(age, CompareOp::kEq, Value("25-34"))});
}

// Naive per-row scan: what every pattern-evaluation call site did before
// the PredicateIndex engine.
void BM_PatternEvaluateNaive(benchmark::State& state) {
  const StackOverflowData& data = SharedData();
  const Pattern pattern = SharedPattern(data);
  for (auto _ : state) {
    Bitmap mask = pattern.EvaluateNaive(data.df);
    benchmark::DoNotOptimize(mask.Count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.df.num_rows()));
}
BENCHMARK(BM_PatternEvaluateNaive);

// The seed's evaluation strategy: a fresh columnar scan per predicate on
// every call (no memoization). This is the baseline the PredicateIndex
// speedup in CHANGES.md is measured against.
void BM_PatternEvaluateColumnarRescan(benchmark::State& state) {
  const StackOverflowData& data = SharedData();
  const Pattern pattern = SharedPattern(data);
  for (auto _ : state) {
    Bitmap mask = PredicateIndex::Scan(
        data.df, pattern.predicates()[0].attr, pattern.predicates()[0].op,
        pattern.predicates()[0].value);
    mask &= PredicateIndex::Scan(
        data.df, pattern.predicates()[1].attr, pattern.predicates()[1].op,
        pattern.predicates()[1].value);
    benchmark::DoNotOptimize(mask.Count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.df.num_rows()));
}
BENCHMARK(BM_PatternEvaluateColumnarRescan);

// Index-backed evaluation (the production path): after the first call the
// atom and conjunction masks are memoized, so repeated evaluation — the
// dominant access pattern in steps 2 and 3 — is a hash lookup plus a
// bitmap copy.
void BM_PatternEvaluateIndexed(benchmark::State& state) {
  const StackOverflowData& data = SharedData();
  const Pattern pattern = SharedPattern(data);
  for (auto _ : state) {
    Bitmap mask = pattern.Evaluate(data.df);
    benchmark::DoNotOptimize(mask.Count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.df.num_rows()));
}
BENCHMARK(BM_PatternEvaluateIndexed);

// Zero-copy variant used by TreatedMask and the mining hot loops.
void BM_PatternEvaluateCachedRef(benchmark::State& state) {
  const StackOverflowData& data = SharedData();
  const Pattern pattern = SharedPattern(data);
  for (auto _ : state) {
    const Bitmap& mask = pattern.EvaluateCached(data.df);
    benchmark::DoNotOptimize(mask.Count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.df.num_rows()));
}
BENCHMARK(BM_PatternEvaluateCachedRef);

void BM_Apriori(benchmark::State& state) {
  const StackOverflowData& data = SharedData();
  const std::vector<size_t> immutable =
      data.df.schema().IndicesWithRole(AttrRole::kImmutable);
  AprioriOptions options;
  options.min_support_fraction = 0.1;
  options.max_pattern_length = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto patterns = MineFrequentPatterns(data.df, immutable, options);
    benchmark::DoNotOptimize(patterns->size());
  }
}
BENCHMARK(BM_Apriori)->Arg(1)->Arg(2)->Arg(3);

void BM_CateRegression(benchmark::State& state) {
  const StackOverflowData& data = SharedData();
  const auto estimator = CateEstimator::Create(&data.df, &data.dag);
  const size_t major = *data.df.schema().IndexOf("UndergradMajor");
  const Pattern intervention(
      {Predicate(major, CompareOp::kEq, Value("cs"))});
  const Bitmap all = data.df.AllRows();
  for (auto _ : state) {
    auto estimate = estimator->EstimateSubgroups(intervention, all, nullptr);
    benchmark::DoNotOptimize(estimate.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.df.num_rows()));
}
BENCHMARK(BM_CateRegression);

void BM_CateStratified(benchmark::State& state) {
  const StackOverflowData& data = SharedData();
  CateOptions options;
  options.method = CateMethod::kStratified;
  const auto estimator = CateEstimator::Create(&data.df, &data.dag, options);
  const size_t major = *data.df.schema().IndexOf("UndergradMajor");
  const Pattern intervention(
      {Predicate(major, CompareOp::kEq, Value("cs"))});
  const Bitmap all = data.df.AllRows();
  for (auto _ : state) {
    auto estimate = estimator->EstimateSubgroups(intervention, all, nullptr);
    benchmark::DoNotOptimize(estimate.ok());
  }
}
BENCHMARK(BM_CateStratified);

void BM_RulesetStats(benchmark::State& state) {
  const StackOverflowData& data = SharedData();
  const Bitmap protected_mask = data.protected_pattern.Evaluate(data.df);
  // 20 synthetic rules with random-ish coverage windows.
  std::vector<PrescriptionRule> rules;
  const size_t n = data.df.num_rows();
  for (size_t i = 0; i < 20; ++i) {
    PrescriptionRule rule;
    rule.coverage = Bitmap(n);
    for (size_t r = i * 97 % n; r < n; r += 2 + i % 5) rule.coverage.Set(r);
    rule.coverage_protected = rule.coverage & protected_mask;
    rule.support = rule.coverage.Count();
    rule.support_protected = rule.coverage_protected.Count();
    rule.utility = 1000.0 + static_cast<double>(i);
    rule.utility_protected = 800.0;
    rule.utility_nonprotected = 1200.0;
    rules.push_back(std::move(rule));
  }
  for (auto _ : state) {
    const RulesetStats stats = ComputeRulesetStats(rules, protected_mask);
    benchmark::DoNotOptimize(stats.exp_utility);
  }
}
BENCHMARK(BM_RulesetStats);

void BM_GreedySelect(benchmark::State& state) {
  const StackOverflowData& data = SharedData();
  const Bitmap protected_mask = data.protected_pattern.Evaluate(data.df);
  std::vector<PrescriptionRule> rules;
  const size_t n = data.df.num_rows();
  for (size_t i = 0; i < 40; ++i) {
    PrescriptionRule rule;
    rule.coverage = Bitmap(n);
    for (size_t r = (i * 131) % n; r < n; r += 2 + i % 7) {
      rule.coverage.Set(r);
    }
    rule.coverage_protected = rule.coverage & protected_mask;
    rule.support = rule.coverage.Count();
    rule.support_protected = rule.coverage_protected.Count();
    rule.utility = 500.0 + 13.0 * static_cast<double>(i % 11);
    rule.utility_protected = rule.utility * 0.6;
    rule.utility_nonprotected = rule.utility * 1.1;
    rules.push_back(std::move(rule));
  }
  for (auto _ : state) {
    const GreedyResult result = GreedySelect(
        rules, protected_mask, FairnessConstraint::GroupSP(500.0),
        CoverageConstraint::Group(0.5, 0.5));
    benchmark::DoNotOptimize(result.stats.exp_utility);
  }
}
BENCHMARK(BM_GreedySelect);

// ---------------------------------------------------------------------
// SIMD kernel sweep (--simd-sweep): direct per-tier kernel timings.

struct KernelRecord {
  std::string kernel;
  std::string simd;
  size_t items;            // bits or rows per call
  double ns_per_call;
  double items_per_second;
};

/// Median-free steady-state timing: grow the iteration count until one
/// timed batch spans >= 50ms, then report per-call nanoseconds.
template <typename Fn>
double TimeNsPerCall(Fn&& fn) {
  fn();  // warm up (page in inputs, resolve dispatch)
  size_t iters = 1;
  for (;;) {
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < iters; ++i) fn();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (seconds >= 0.05) {
      return seconds * 1e9 / static_cast<double>(iters);
    }
    iters = seconds <= 0.0 ? iters * 16
                           : static_cast<size_t>(
                                 static_cast<double>(iters) * 0.08 / seconds) +
                                 1;
  }
}

void Record(std::vector<KernelRecord>* records, const std::string& kernel,
            simd::SimdLevel level, size_t items, double ns) {
  KernelRecord rec;
  rec.kernel = kernel;
  rec.simd = simd::SimdLevelName(level);
  rec.items = items;
  rec.ns_per_call = ns;
  rec.items_per_second = static_cast<double>(items) * 1e9 / ns;
  std::printf("  %-24s %-7s %12.0f ns/call  %10.2f Mitems/s\n",
              kernel.c_str(), rec.simd.c_str(), ns,
              rec.items_per_second / 1e6);
  records->push_back(std::move(rec));
}

int RunSimdKernelSweep(const std::string& json_path) {
  constexpr size_t kBits = 1'000'000;
  constexpr size_t kWords = (kBits + 63) / 64;
  constexpr size_t kCells = 24;
  std::mt19937_64 rng(7);

  // Bitmap word inputs (random half-density).
  std::vector<uint64_t> a(kWords), b(kWords);
  for (size_t i = 0; i < kWords; ++i) {
    a[i] = rng();
    b[i] = rng();
  }
  // Compare-scan inputs.
  std::vector<int32_t> codes(kBits);
  std::vector<double> values(kBits);
  std::uniform_int_distribution<int32_t> code_dist(-1, 4);
  std::uniform_real_distribution<double> val_dist(-2.0, 2.0);
  for (size_t i = 0; i < kBits; ++i) {
    codes[i] = code_dist(rng);
    values[i] = val_dist(rng);
  }
  std::vector<uint64_t> mask_out(kWords);
  // Accumulation inputs, shaped like Step-2 mining: one outcome column
  // (2% nulls, masked out by the valid-row bitmap) shared by kPartitions
  // confounder partitions, each with its own 4 MB cell map. A call runs
  // one pass per partition, so the working set (~40 MB) is not
  // cache-resident, as it is not in the pipeline. Groups are random at
  // each swept density; treated/protected bits are random.
  constexpr size_t kPartitions = 8;
  std::vector<uint64_t> treated(kWords), prot(kWords), valid(kWords, 0);
  for (size_t i = 0; i < kWords; ++i) {
    treated[i] = rng();
    prot[i] = rng();
  }
  std::vector<double> outcome(kBits);
  std::vector<double> outcome_int(kBits);
  std::uniform_int_distribution<int32_t> cell_dist(0, kCells - 1);
  std::uniform_int_distribution<int64_t> int_dist(-50, 50);
  std::bernoulli_distribution null_dist(0.02);
  for (size_t i = 0; i < kBits; ++i) {
    const bool is_null = null_dist(rng);
    if (!is_null) valid[i / 64] |= uint64_t{1} << (i % 64);
    outcome[i] = is_null ? std::nan("") : val_dist(rng);
    outcome_int[i] =
        is_null ? std::nan("") : static_cast<double>(int_dist(rng));
  }
  std::vector<std::vector<int32_t>> cells(kPartitions,
                                          std::vector<int32_t>(kBits));
  for (auto& cell_of_row : cells) {
    for (size_t i = 0; i < kBits; ++i) {
      const bool row_valid = ((valid[i / 64] >> (i % 64)) & 1) != 0;
      cell_of_row[i] = row_valid ? cell_dist(rng) : -1;
    }
  }
  const auto random_group = [&](double density) {
    std::vector<uint64_t> group(kWords, 0);
    std::bernoulli_distribution bit(density);
    for (size_t i = 0; i < kBits; ++i) {
      if (bit(rng)) group[i / 64] |= uint64_t{1} << (i % 64);
    }
    return group;
  };
  struct Sink {
    size_t rows = 0, n_treated = 0, n_control = 0;
    std::vector<uint32_t> n = std::vector<uint32_t>(2 * kCells, 0);
    std::vector<double> sy = std::vector<double>(2 * kCells, 0.0);
    std::vector<double> syy = std::vector<double>(2 * kCells, 0.0);
    std::vector<int64_t> isy = std::vector<int64_t>(2 * kCells, 0);
    std::vector<int64_t> isyy = std::vector<int64_t>(2 * kCells, 0);
    simd::CateSink View() {
      simd::CateSink s;
      s.rows = &rows;
      s.n_treated = &n_treated;
      s.n_control = &n_control;
      s.n = n.data();
      s.sy = sy.data();
      s.syy = syy.data();
      s.isy = isy.data();
      s.isyy = isyy.data();
      return s;
    }
  };
  struct Density {
    const char* tag;
    double p;
  };
  const Density densities[] = {{"d10", 0.1}, {"d30", 0.3}, {"d60", 0.6},
                               {"d100", 1.0}};
  std::vector<std::vector<uint64_t>> groups;
  std::vector<size_t> group_rows;
  for (const Density& d : densities) {
    groups.push_back(random_group(d.p));
    size_t rows = 0;
    for (size_t w = 0; w < kWords; ++w) {
      rows += static_cast<size_t>(__builtin_popcountll(groups.back()[w] &
                                                       valid[w]));
    }
    group_rows.push_back(rows * kPartitions);
  }

  std::vector<KernelRecord> records;
  std::printf("simd kernel sweep: %zu bits, host max tier %s\n", kBits,
              simd::SimdLevelName(simd::MaxSupportedSimdLevel()));
  for (const simd::SimdLevel level : simd::SupportedSimdLevels()) {
    const simd::Kernels* k = simd::KernelsFor(level);
    Record(&records, "popcount", level, kBits,
           TimeNsPerCall([&] {
             benchmark::DoNotOptimize(k->popcount(a.data(), kWords));
           }));
    Record(&records, "and_count", level, kBits,
           TimeNsPerCall([&] {
             benchmark::DoNotOptimize(k->and_count(a.data(), b.data(), kWords));
           }));
    Record(&records, "andnot_count", level, kBits,
           TimeNsPerCall([&] {
             benchmark::DoNotOptimize(
                 k->andnot_count(a.data(), b.data(), kWords));
           }));
    // In-place ops are idempotent (x &= y twice = once), so steady-state
    // timing needs no per-call copy.
    Record(&records, "and_inplace", level, kBits,
           TimeNsPerCall([&] { k->and_inplace(a.data(), b.data(), kWords); }));
    Record(&records, "or_inplace", level, kBits,
           TimeNsPerCall([&] { k->or_inplace(a.data(), b.data(), kWords); }));
    Record(&records, "mask_codes_eq", level, kBits,
           TimeNsPerCall([&] {
             k->mask_codes_eq(codes.data(), kBits, 2, mask_out.data());
           }));
    Record(&records, "mask_numeric_cmp", level, kBits,
           TimeNsPerCall([&] {
             k->mask_numeric_cmp(values.data(), kBits, simd::Cmp::kLe, 0.25,
                                 mask_out.data());
           }));
    // One pass per partition per call; items = accumulated rows, so
    // items_per_second reads as rows/s.
    for (size_t d = 0; d < groups.size(); ++d) {
      for (const bool int_path : {false, true}) {
        simd::CateAccumArgs args;
        args.group_words = groups[d].data();
        args.treated_words = treated.data();
        args.protected_words = prot.data();
        args.valid_words = valid.data();
        args.outcome = (int_path ? outcome_int : outcome).data();
        args.word_begin = 0;
        args.word_end = kWords;
        args.num_slots = 2 * kCells;
        // The guard never trips at this magnitude.
        args.safe_rows = ~uint64_t{0};
        const std::string name = std::string(int_path ? "cate_accumulate_int_"
                                                      : "cate_accumulate_") +
                                 densities[d].tag;
        Record(&records, name, level, group_rows[d], TimeNsPerCall([&] {
                 for (const auto& cell_of_row : cells) {
                   Sink overall, p, np;
                   args.cell_of_row = cell_of_row.data();
                   args.overall = overall.View();
                   args.prot = p.View();
                   args.nonprot = np.View();
                   if (int_path) {
                     benchmark::DoNotOptimize(k->cate_accumulate_int(args));
                   } else {
                     k->cate_accumulate(args);
                   }
                   benchmark::DoNotOptimize(overall.rows);
                 }
               }));
      }
    }
  }

  // The quantile-edge selection satellite: per-edge nth_element (the
  // production QuantileBinEdges) vs the full sort it replaced, on a
  // 1M-value column. Not a SIMD kernel; recorded once under "scalar".
  {
    auto schema = Schema::Create(
        {{"x", AttrType::kNumeric, AttrRole::kImmutable}});
    DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
    std::uniform_real_distribution<double> dist(-1000.0, 1000.0);
    for (size_t i = 0; i < kBits; ++i) {
      (void)df.AppendRow({Value(dist(rng))});
    }
    const Column& col = df.column(0);
    Record(&records, "quantile_edges_nth_element", simd::SimdLevel::kScalar,
           kBits, TimeNsPerCall([&] {
             benchmark::DoNotOptimize(QuantileBinEdges(col, 4));
           }));
    Record(&records, "quantile_edges_full_sort", simd::SimdLevel::kScalar,
           kBits, TimeNsPerCall([&] {
             std::vector<double> vals;
             vals.reserve(col.size());
             for (size_t r = 0; r < col.size(); ++r) {
               if (!col.IsNull(r)) vals.push_back(col.numeric(r));
             }
             std::sort(vals.begin(), vals.end());
             std::vector<double> edges;
             for (size_t bin = 1; bin < 4 && !vals.empty(); ++bin) {
               edges.push_back(vals[vals.size() * bin / 4]);
             }
             benchmark::DoNotOptimize(edges);
           }));
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open '%s' for writing\n",
                   json_path.c_str());
      return 1;
    }
    out << "{\"bench\":\"micro_simd\",\"bits\":" << kBits
        << ",\"host_max_simd\":\""
        << simd::SimdLevelName(simd::MaxSupportedSimdLevel())
        << "\",\"kernels\":[";
    for (size_t i = 0; i < records.size(); ++i) {
      const KernelRecord& r = records[i];
      out << (i == 0 ? "" : ",") << "{\"kernel\":\"" << r.kernel
          << "\",\"simd\":\"" << r.simd << "\",\"items\":" << r.items
          << ",\"ns_per_call\":" << r.ns_per_call
          << ",\"items_per_second\":" << r.items_per_second << "}";
    }
    out << "]}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace

int RunSimdSweepMain(const std::string& json_path) {
  return RunSimdKernelSweep(json_path);
}

}  // namespace faircap

int main(int argc, char** argv) {
  std::string json_path;
  bool sweep = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
      sweep = true;
    } else if (std::strcmp(argv[i], "--simd-sweep") == 0) {
      sweep = true;
    }
  }
  if (sweep) return faircap::RunSimdSweepMain(json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
