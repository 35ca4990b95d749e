// Observability layer (util/obs/): span tracer semantics — disabled-mode
// zero-event guarantee, nesting, thread attribution in the Chrome trace
// JSON — plus metrics-registry exactness under concurrent increments (the
// TSan leg runs this test), Reset-keeps-handles-valid, and the run-report
// schema floor: every v1 section and key must be present in the emitted
// JSON, and a real pipeline run (and a file ingest, inference included)
// must populate the same registry the report serializes (no bench-only
// shadow counters).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "causal/cate_stats_engine.h"
#include "core/faircap.h"
#include "core/incremental.h"
#include "ingest/chunked_csv_reader.h"
#include "util/obs/metrics.h"
#include "util/obs/run_report.h"
#include "util/obs/trace.h"
#include "util/random.h"
#include "util/simd/simd.h"

namespace faircap {
namespace {

// ---------------------------------------------------------------------------
// Tracer

TEST(TraceTest, DisabledTracerRecordsNothing) {
  obs::DisableTracing();
  obs::ClearTrace();
  {
    obs::TraceSpan outer("outer");
    obs::TraceSpan inner("inner", 7);
  }
  EXPECT_EQ(obs::TraceEventCount(), 0u);
  std::ostringstream out;
  obs::WriteChromeTrace(out);
  EXPECT_EQ(out.str(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
}

TEST(TraceTest, EnableRecordsNestedSpans) {
  obs::EnableTracing();
  {
    obs::TraceSpan outer("outer");
    { obs::TraceSpan inner("inner", 3); }
    { obs::TraceSpan inner("inner", 4); }
  }
  obs::DisableTracing();
  EXPECT_EQ(obs::TraceEventCount(), 3u);
  std::ostringstream out;
  obs::WriteChromeTrace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"v\":3}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"v\":4}"), std::string::npos);
  obs::ClearTrace();
}

TEST(TraceTest, EnablementLatchedAtConstruction) {
  // A span that starts before EnableTracing records nothing even if
  // tracing turns on mid-span; a span that starts while enabled records
  // even if tracing turns off before its destructor.
  obs::DisableTracing();
  obs::ClearTrace();
  {
    obs::TraceSpan off_span("off");
    obs::EnableTracing();
  }
  EXPECT_EQ(obs::TraceEventCount(), 0u);
  {
    obs::TraceSpan on_span("on");
    obs::DisableTracing();
  }
  EXPECT_EQ(obs::TraceEventCount(), 1u);
  obs::ClearTrace();
}

TEST(TraceTest, ThreadAttribution) {
  obs::EnableTracing();
  std::thread worker([] {
    obs::SetThreadTraceName("obs-test-thread");
    obs::TraceSpan span("worker_span");
  });
  worker.join();
  { obs::TraceSpan span("main_span"); }
  obs::DisableTracing();
  std::ostringstream out;
  obs::WriteChromeTrace(out);
  const std::string json = out.str();
  // The worker's buffer survives its exit; its track carries the
  // registered name and its span, on a different tid from main's.
  EXPECT_NE(json.find("\"thread_name\",\"args\":{\"name\":\"obs-test-thread\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker_span\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"main_span\""), std::string::npos);
  obs::ClearTrace();
}

TEST(TraceTest, EnableTracingStartsAFreshSession) {
  obs::EnableTracing();
  { obs::TraceSpan span("stale"); }
  obs::EnableTracing();  // drops the previous session's events
  { obs::TraceSpan span("fresh"); }
  obs::DisableTracing();
  std::ostringstream out;
  obs::WriteChromeTrace(out);
  EXPECT_EQ(out.str().find("\"name\":\"stale\""), std::string::npos);
  EXPECT_NE(out.str().find("\"name\":\"fresh\""), std::string::npos);
  obs::ClearTrace();
}

// The complete ("X") events of a Chrome trace: name, track, start, end.
struct XEvent {
  std::string name;
  int tid = 0;
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
};

// A trace timestamp, microseconds with exactly three decimals, as integer
// nanoseconds.
uint64_t MicrosToNs(const std::string& micros) {
  const size_t dot = micros.find('.');
  EXPECT_NE(dot, std::string::npos) << micros;
  EXPECT_EQ(micros.size() - dot, 4u) << micros;
  if (dot == std::string::npos) return 0;
  return std::stoull(micros.substr(0, dot)) * 1000 +
         std::stoull(micros.substr(dot + 1));
}

std::vector<XEvent> ParseXEvents(const std::string& json) {
  static const std::regex kEvent(
      R"re(\{"ph":"X","pid":\d+,"tid":(\d+),"ts":([^,]+),)re"
      R"re("dur":([^,]+),"name":"([^"]+)")re");
  std::vector<XEvent> events;
  for (auto it = std::sregex_iterator(json.begin(), json.end(), kEvent);
       it != std::sregex_iterator(); ++it) {
    const std::smatch& m = *it;
    const uint64_t ts = MicrosToNs(m[2].str());
    events.push_back(
        {m[4].str(), std::stoi(m[1].str()), ts, ts + MicrosToNs(m[3].str())});
  }
  return events;
}

TEST(TraceTest, TimestampsKeepNanosecondsPastTenSeconds) {
  // A span 12.345678901 s into a session and a child 1 us inside it: at
  // six significant digits both would start at 1.23457e+07 us.
  obs::DisableTracing();
  obs::ClearTrace();
  constexpr uint64_t kParentStart = 12345678901;
  constexpr uint64_t kParentDur = 5000003;
  constexpr uint64_t kChildStart = kParentStart + 1000;
  constexpr uint64_t kChildDur = 2001;
  obs::internal::RecordTraceEvent("parent", kParentStart, kParentDur, -1);
  obs::internal::RecordTraceEvent("child", kChildStart, kChildDur, -1);
  std::ostringstream out;
  obs::WriteChromeTrace(out);
  obs::ClearTrace();
  const std::string json = out.str();
  EXPECT_NE(json.find("\"ts\":12345678.901,\"dur\":5000.003,"),
            std::string::npos)
      << json;
  const std::vector<XEvent> events = ParseXEvents(json);
  ASSERT_EQ(events.size(), 2u) << json;
  EXPECT_EQ(events[0].name, "parent");
  EXPECT_EQ(events[0].begin_ns, kParentStart);
  EXPECT_EQ(events[0].end_ns, kParentStart + kParentDur);
  EXPECT_EQ(events[1].name, "child");
  EXPECT_EQ(events[1].begin_ns, kChildStart);
  EXPECT_EQ(events[1].end_ns, kChildStart + kChildDur);
  // A reader that parses the numbers as doubles (strtod) gets the same
  // nanoseconds back: the parent's and the child's start.
  for (const char* micros : {"12345678.901", "12345679.901"}) {
    const double us = std::strtod(micros, nullptr);
    EXPECT_EQ(static_cast<uint64_t>(std::llround(us * 1e3)),
              MicrosToNs(micros))
        << micros;
  }
}

// ---------------------------------------------------------------------------
// Metrics registry

TEST(MetricsTest, CounterExactUnderConcurrentIncrements) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& counter = registry.GetCounter("obs_test.concurrent");
  const uint64_t before = counter.value();
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Resolve the handle on each thread too: must alias one counter.
      obs::Counter& c = registry.GetCounter("obs_test.concurrent");
      for (int i = 0; i < kIncrements; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(),
            before + static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsTest, HandlesStayValidAcrossReset) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& counter = registry.GetCounter("obs_test.reset");
  obs::Gauge& gauge = registry.GetGauge("obs_test.reset_gauge");
  counter.Add(41);
  gauge.Set(2.5);
  registry.Reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0.0);
  counter.Increment();  // the pre-Reset handle still writes the registry
  EXPECT_EQ(registry.CounterValue("obs_test.reset"), 1u);
  EXPECT_EQ(&registry.GetCounter("obs_test.reset"), &counter);
}

TEST(MetricsTest, HistogramBucketsAndSum) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Histogram& hist = registry.GetHistogram("obs_test.hist");
  registry.Reset();
  hist.Observe(0.5);  // bucket 0 (<= 1)
  hist.Observe(1.0);  // bucket 0
  hist.Observe(3.0);  // (2,4] -> bucket 2
  hist.Observe(4.0);  // bucket 2
  hist.Observe(100.0);  // (64,128] -> bucket 7
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_DOUBLE_EQ(hist.sum(), 108.5);
  EXPECT_EQ(hist.bucket(0), 2u);
  EXPECT_EQ(hist.bucket(2), 2u);
  EXPECT_EQ(hist.bucket(7), 1u);
}

TEST(MetricsTest, WriteJsonGroupsBySection) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  registry.GetCounter("obs_json.alpha").Add(3);
  registry.GetGauge("obs_json.beta").Set(1.5);
  std::ostringstream out;
  registry.WriteJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"obs_json\":{"), std::string::npos);
  EXPECT_NE(json.find("\"alpha\":3"), std::string::npos);
  EXPECT_NE(json.find("\"beta\":1.5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Run report schema

TEST(RunReportTest, SchemaFloorAlwaysPresent) {
  // Even on a freshly Reset registry, the report carries the full v1 key
  // set — downstream parsers (CI validation, the bench harnesses) index
  // unconditionally.
  obs::MetricsRegistry::Global().Reset();
  std::ostringstream out;
  obs::WriteRunReport(out);
  const std::string json = out.str();
  EXPECT_EQ(json.rfind("{\"schema\":\"faircap.run_report.v1\",", 0), 0u);
  for (const char* key :
       {"\"phase\":{", "\"scheduler\":{", "\"index_cache\":{",
        "\"engine_cache\":{", "\"ingest\":{", "\"simd\":{",
        "\"estimation\":{", "\"mining\":{"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing section " << key;
  }
  for (const char* key :
       {"\"group_mining_seconds\":", "\"treatment_mining_seconds\":",
        "\"selection_seconds\":", "\"ingest_seconds\":",
        "\"generate_seconds\":", "\"total_seconds\":",
        "\"workers\":", "\"executed\":", "\"instances\":", "\"hits\":",
        "\"misses\":", "\"evictions\":", "\"atom_evictions\":",
        "\"warm_atom_masks\":",
        "\"atom_bytes\":", "\"conjunction_bytes\":",
        "\"numeric_order_bytes\":", "\"rows\":", "\"bytes\":", "\"chunks\":",
        "\"segments\":", "\"runs\":", "\"infer_runs\":",
        "\"infer_bytes\":", "\"infer_quoted_records\":", "\"level\":",
        "\"level_name\":",
        "\"batch_evals\":", "\"partition_builds\":",
        "\"solve_regression\":", "\"solve_stratified\":",
        "\"solve_ipw_cells\":", "\"solve_ipw_rows\":",
        "\"accumulate_path_sparse\":", "\"table_passes\":",
        "\"compact_views\":",
        "\"compact_evals\":", "\"compact_passes\":",
        "\"lattice_evaluations\":",
        "\"pattern_tasks\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing key " << key;
  }
  // Keys of deleted code paths are gone from the floor, not kept at 0.
  for (const char* key :
       {"\"submitted\":", "\"stolen\":", "\"helped\":", "\"legacy_calls\":",
        "\"accumulate_path_int\":", "\"accumulate_path_fp_staged\":"}) {
    EXPECT_EQ(json.find(key), std::string::npos) << "retired key " << key;
  }
}

TEST(RunReportTest, SimdLevelNameMatchesGauge) {
  // A Reset zeroes the "simd.level" gauge; the report must still name the
  // tier that runs, and set the gauge to it.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const auto report_names = [&](simd::SimdLevel level) {
    registry.Reset();
    std::ostringstream out;
    obs::WriteRunReport(out);
    EXPECT_EQ(registry.GaugeValue("simd.level"), static_cast<double>(level));
    return out.str().find(std::string("\"level_name\":\"") +
                          simd::SimdLevelName(level) + "\"") !=
           std::string::npos;
  };
  EXPECT_TRUE(report_names(simd::ActiveSimdLevel()));
  {
    const simd::ScopedSimdLevel pin(simd::SimdLevel::kScalar);
    EXPECT_TRUE(report_names(simd::SimdLevel::kScalar));
  }
  EXPECT_TRUE(report_names(simd::ActiveSimdLevel()));
}

TEST(RunReportTest, SchemaInferenceHasItsOwnSpanAndCounters) {
  // A traced file ingest must tell the inference pass from the parse.
  const std::string csv =
      "a,b\n1,x\n\"2\",\"y,z\"\n3,w\n";
  const std::string path = testing::TempDir() + "/faircap_obs_infer.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << csv;
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  obs::EnableTracing();
  const auto df = StreamCsvInferSchema(path);
  obs::DisableTracing();
  std::remove(path.c_str());
  ASSERT_TRUE(df.ok()) << df.status().ToString();
  EXPECT_EQ(registry.CounterValue("ingest.infer_runs"), 1u);
  EXPECT_EQ(registry.CounterValue("ingest.infer_bytes"), csv.size());
  EXPECT_EQ(registry.CounterValue("ingest.infer_quoted_records"), 1u);
  EXPECT_EQ(registry.CounterValue("ingest.runs"), 1u);
  std::ostringstream trace;
  obs::WriteChromeTrace(trace);
  obs::ClearTrace();
  EXPECT_NE(trace.str().find("\"name\":\"ingest_infer\""), std::string::npos);
  EXPECT_NE(trace.str().find("\"name\":\"ingest_stream\""),
            std::string::npos);
  std::ostringstream report;
  obs::WriteRunReport(report);
  EXPECT_NE(report.str().find("\"infer_bytes\":" + std::to_string(csv.size())),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// End to end: the pipeline populates the registry the report serializes.

struct TestData {
  DataFrame df;
  CausalDag dag;
  Pattern protected_pattern;
};

// `t_levels` categories of the treatment attribute T (at most 4).
TestData MakeSmallSynthetic(size_t n, uint64_t seed, size_t t_levels = 2) {
  auto schema = Schema::Create({
      {"Prot", AttrType::kCategorical, AttrRole::kImmutable},
      {"G", AttrType::kCategorical, AttrRole::kImmutable},
      {"Z", AttrType::kCategorical, AttrRole::kImmutable},
      {"T", AttrType::kCategorical, AttrRole::kMutable},
      {"O", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  Rng rng(seed);
  const char* g_levels[] = {"g0", "g1"};
  const char* z_levels[] = {"a", "b"};
  const char* t_names[] = {"no", "yes", "t2", "t3"};
  for (size_t i = 0; i < n; ++i) {
    const bool prot = rng.NextBernoulli(0.3);
    const size_t g = rng.NextBounded(2);
    const size_t z = rng.NextBounded(2);
    const bool t = rng.NextBernoulli(0.3 + 0.2 * static_cast<double>(z));
    const size_t t_code = t && t_levels > 2 ? 1 + rng.NextBounded(t_levels - 1)
                                            : (t ? 1 : 0);
    const double o = 2.0 + 3.0 * static_cast<double>(z) + (t ? 4.0 : 0.0) +
                     static_cast<double>(rng.NextBounded(3));
    const Status st = df.AppendRow({Value(prot ? "yes" : "no"),
                                    Value(g_levels[g]), Value(z_levels[z]),
                                    Value(t_names[t_code]), Value(o)});
    EXPECT_TRUE(st.ok());
  }
  CausalDag dag = CausalDag::Create(
                      {"Prot", "G", "Z", "T", "O"},
                      {{"Z", "T"}, {"Z", "O"}, {"Prot", "O"}, {"T", "O"}})
                      .ValueOrDie();
  return {std::move(df), std::move(dag),
          Pattern().With(Predicate(0, CompareOp::kEq, Value("yes")))};
}

TEST(RunReportTest, PipelineRunPopulatesRegistry) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  TestData data = MakeSmallSynthetic(600, 17);
  FairCapOptions options;
  options.apriori.min_support_fraction = 0.2;
  options.num_threads = 2;
  auto solver =
      FairCap::Create(&data.df, &data.dag, data.protected_pattern, options);
  ASSERT_TRUE(solver.ok()) << solver.status().ToString();
  auto result = solver->Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // One pool serves Step 2 and selection.
  EXPECT_EQ(registry.CounterValue("scheduler.instances"), 1u);
  EXPECT_GT(registry.CounterValue("scheduler.executed"), 0u);
  EXPECT_GT(registry.CounterValue("mining.pattern_tasks"), 0u);
  EXPECT_GT(registry.CounterValue("mining.lattice_evaluations"), 0u);
  EXPECT_GT(registry.CounterValue("estimation.batch_evals"), 0u);
  EXPECT_GT(registry.CounterValue("estimation.partition_builds"), 0u);
  EXPECT_GT(registry.CounterValue("index_cache.misses"), 0u);
  EXPECT_GT(registry.CounterValue("engine_cache.misses"), 0u);
  EXPECT_GE(registry.GaugeValue("phase.total_seconds"),
            registry.GaugeValue("phase.treatment_mining_seconds"));
  EXPECT_GT(registry.GaugeValue("phase.total_seconds"), 0.0);
  // The counters the report serializes are the ones the library bumped.
  std::ostringstream out;
  obs::WriteRunReport(out);
  const std::string json = out.str();
  const uint64_t patterns = registry.CounterValue("mining.pattern_tasks");
  EXPECT_NE(json.find("\"pattern_tasks\":" + std::to_string(patterns)),
            std::string::npos);
  // Without an incremental state every pattern is mined, and each mined
  // pattern records its wall time once.
  EXPECT_EQ(registry.GetHistogram("mining.pattern_us").count(), patterns);
  EXPECT_NE(json.find("\"pattern_us\":{\"count\":" + std::to_string(patterns)),
            std::string::npos);
  // SchedulerStats: a multi-threaded run reports its pool's workers, and
  // Step 2's pool claims one grouping pattern at a time.
  EXPECT_EQ(result->scheduler.workers, 2u);
  EXPECT_EQ(result->scheduler.tasks, result->num_grouping_patterns);
}

TEST(RunReportTest, PartitionBuildHasItsOwnSpanAndCounter) {
  // Each cold partition build is one partition_build span and one count.
  TestData data = MakeSmallSynthetic(300, 29);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  obs::EnableTracing();
  const auto part = ConfounderPartition::Build(data.df, 4, {2}, CateOptions());
  obs::DisableTracing();
  EXPECT_EQ(registry.CounterValue("estimation.partition_builds"), 1u);
  std::ostringstream trace;
  obs::WriteChromeTrace(trace);
  obs::ClearTrace();
  EXPECT_NE(trace.str().find("\"name\":\"partition_build\""),
            std::string::npos);
}

TEST(RunReportTest, CompactPathIsCountedAndTraced) {
  // T's four categories share one adjustment set, so each grouping
  // pattern's first lattice level is one batch of four: it is read from
  // a compacted group. Every evaluation is a compact or a table pass.
  TestData data = MakeSmallSynthetic(600, 31, /*t_levels=*/4);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  FairCapOptions options;
  options.apriori.min_support_fraction = 0.2;
  options.num_threads = 1;
  options.fairness = FairnessConstraint::GroupSP(100.0);
  auto solver =
      FairCap::Create(&data.df, &data.dag, data.protected_pattern, options);
  ASSERT_TRUE(solver.ok()) << solver.status().ToString();
  obs::EnableTracing();
  auto result = solver->Run();
  obs::DisableTracing();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const uint64_t views = registry.CounterValue("estimation.compact_views");
  const uint64_t compact = registry.CounterValue("estimation.compact_evals");
  EXPECT_EQ(views, result->num_grouping_patterns);
  EXPECT_EQ(compact, 4 * result->num_grouping_patterns);
  const uint64_t sparse =
      registry.CounterValue("estimation.accumulate_path_sparse");
  EXPECT_EQ(compact + sparse, registry.CounterValue("estimation.batch_evals"));
  // A fused pass, table or compact, serves several evaluations: each
  // pattern's batch of four reads its view in one compact pass.
  EXPECT_LE(registry.CounterValue("estimation.table_passes"), sparse);
  const uint64_t compact_passes =
      registry.CounterValue("estimation.compact_passes");
  EXPECT_LE(compact_passes, compact);
  EXPECT_EQ(compact_passes, result->num_grouping_patterns);
  std::ostringstream trace;
  obs::WriteChromeTrace(trace);
  obs::ClearTrace();
  for (const char* span : {"compact_view", "eval", "accumulate", "solve",
                           "engine_build", "partition_build"}) {
    EXPECT_NE(trace.str().find("\"name\":\"" + std::string(span) + "\""),
              std::string::npos)
        << span;
  }
}

TEST(RunReportTest, IncrementalPathHasAccumulateAndSolveSpans) {
  // With an IncrementalState every estimate goes through
  // EstimateWithCache, which never reads a compacted group: the
  // accumulate and solve spans in the trace are its own.
  TestData data = MakeSmallSynthetic(400, 37, /*t_levels=*/4);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  FairCapOptions options;
  options.apriori.min_support_fraction = 0.2;
  options.num_threads = 1;
  options.incremental_state = std::make_shared<IncrementalState>();
  auto solver =
      FairCap::Create(&data.df, &data.dag, data.protected_pattern, options);
  ASSERT_TRUE(solver.ok()) << solver.status().ToString();
  obs::EnableTracing();
  auto result = solver->Run();
  obs::DisableTracing();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(registry.CounterValue("estimation.compact_evals"), 0u);
  EXPECT_GT(registry.CounterValue("append.evals_full"), 0u);
  std::ostringstream trace;
  obs::WriteChromeTrace(trace);
  obs::ClearTrace();
  for (const char* span : {"eval", "accumulate", "solve", "engine_build"}) {
    EXPECT_NE(trace.str().find("\"name\":\"" + std::string(span) + "\""),
              std::string::npos)
        << span;
  }
}

TEST(RunReportTest, SelectionTracesItsRulesetStatsRecompute) {
  // The greedy selection ends with one canonical ruleset-statistics
  // recompute, traced as a "ruleset_stats" span inside "selection".
  TestData data = MakeSmallSynthetic(400, 41);
  FairCapOptions options;
  options.apriori.min_support_fraction = 0.2;
  options.num_threads = 2;
  options.fairness = FairnessConstraint::GroupSP(100.0);
  auto solver =
      FairCap::Create(&data.df, &data.dag, data.protected_pattern, options);
  ASSERT_TRUE(solver.ok()) << solver.status().ToString();
  obs::ClearTrace();
  obs::EnableTracing();
  auto result = solver->Run();
  obs::DisableTracing();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::ostringstream trace;
  obs::WriteChromeTrace(trace);
  obs::ClearTrace();
  std::vector<XEvent> selection, stats;
  for (const XEvent& e : ParseXEvents(trace.str())) {
    if (e.name == "selection") selection.push_back(e);
    if (e.name == "ruleset_stats") stats.push_back(e);
  }
  ASSERT_EQ(selection.size(), 1u);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].tid, selection[0].tid);
  // Timestamps keep their nanoseconds, so containment is exact.
  EXPECT_GE(stats[0].begin_ns, selection[0].begin_ns);
  EXPECT_LE(stats[0].end_ns, selection[0].end_ns);
}

TEST(RunReportTest, InlineRunReportsInlineExecution) {
  TestData data = MakeSmallSynthetic(300, 23);
  FairCapOptions options;
  options.apriori.min_support_fraction = 0.2;
  options.num_threads = 1;  // sequential: no scheduler is constructed
  auto solver =
      FairCap::Create(&data.df, &data.dag, data.protected_pattern, options);
  ASSERT_TRUE(solver.ok()) << solver.status().ToString();
  auto result = solver->Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->scheduler.workers, 0u);
  EXPECT_EQ(result->scheduler.tasks, result->num_grouping_patterns);
}

}  // namespace
}  // namespace faircap
