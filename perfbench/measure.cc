#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/greedy.h"
#include "core/incremental.h"
#include "digest.h"
#include "ingest/repository.h"
#include "probe.h"
#include "reference.h"
#include "stats.h"
#include "trace_summary.h"
#include "util/obs/metrics.h"
#include "util/obs/trace.h"
#include "util/simd/simd.h"
#include "util/timer.h"

namespace perfbench {

using faircap::DataFrame;
using faircap::FairCap;
using faircap::PrescriptionRule;
using faircap::Result;
using faircap::Status;
using faircap::StopWatch;
namespace obs = faircap::obs;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// Seconds of the public calls a traced op makes in place of Run().
struct StepSeconds {
  double create = 0.0;
  double group = 0.0;
  double treatment = 0.0;
  double select = 0.0;
};

/// What one op leaves behind for the checks and the per-layer metrics.
struct OpOutput {
  Digest digest;
  std::vector<PrescriptionRule> candidates;  ///< traced ops only
  size_t patterns = 0;                       ///< traced ops only
};

/// Wall times, each with the number of reference kernel groups run
/// before it: sample i ran between groups group[i] - 1 and group[i].
struct Timed {
  std::vector<double> seconds;
  std::vector<size_t> group;

  void Add(double value, size_t groups_so_far) {
    seconds.push_back(value);
    group.push_back(groups_so_far);
  }
};

/// Every sample a run collects; end-to-end and per-layer metrics are
/// medians over these.
struct Samples {
  Timed setup_s;                    ///< untraced ops' (or sessions') set-up
  Timed op_s;                       ///< untraced ops
  Timed traced_op_s;                ///< traced ops, same span of work
  std::vector<double> infer_s;
  std::vector<double> parse_s;
  std::vector<double> create_s;
  std::vector<double> group_s;
  std::vector<double> treatment_s;
  std::vector<double> select_s;
  std::vector<double> lattice_self_s;
  std::vector<double> eval_self_s;
  std::vector<double> busy_frac;
  std::vector<double> delta_parse_s;
  std::vector<double> extend_s;
  std::vector<double> remine_s;
  std::vector<double> rss_mb;  ///< process peak RSS after each counted op
                               ///< (cold) or session (append)
  std::vector<double> ref1_s;  ///< reference kernel on one thread
  std::vector<double> refn_s;  ///< reference kernel on the op's threads
  /// Mean of each group of kernel runs, in the order they ran.
  std::vector<double> ref1_groups;
  std::vector<double> refn_groups;
};

/// Registry values of one op, read right after it (Reset() runs before
/// every op, so each value counts that op alone).
struct Counters {
  double index_hits = 0, index_misses = 0, index_bytes = 0;
  double lattice_evals = 0, solves = 0;
  double sparse_passes = 0, fp_staged_passes = 0, int_passes = 0;
  double engine_hits = 0, engine_misses = 0, engine_bytes = 0;
  double tasks = 0, stolen = 0, helped = 0, accumulate_rows = 0;
  double patterns_reused = 0, patterns_rechecked = 0;
  double evals_cached = 0, evals_delta = 0, evals_full = 0;
};

Counters ReadCounters() {
  const obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  auto c = [&r](const char* name) {
    return static_cast<double>(r.CounterValue(name));
  };
  Counters k;
  k.index_hits = c("index_cache.hits");
  k.index_misses = c("index_cache.misses");
  k.index_bytes = r.GaugeValue("index_cache.atom_bytes") +
                  r.GaugeValue("index_cache.conjunction_bytes") +
                  r.GaugeValue("index_cache.numeric_order_bytes");
  k.lattice_evals = c("mining.lattice_evaluations");
  k.solves = c("estimation.solve_regression") +
             c("estimation.solve_stratified") +
             c("estimation.solve_ipw_cells") + c("estimation.solve_ipw_rows");
  k.sparse_passes = c("estimation.accumulate_path_sparse");
  k.fp_staged_passes = c("estimation.accumulate_path_fp_staged");
  k.int_passes = c("estimation.accumulate_path_int");
  k.engine_hits = c("engine_cache.hits");
  k.engine_misses = c("engine_cache.misses");
  k.engine_bytes = r.GaugeValue("engine_cache.bytes");
  k.tasks = c("scheduler.executed");
  k.stolen = c("scheduler.stolen");
  k.helped = c("scheduler.helped");
  k.accumulate_rows = c("simd.cate_accumulate_rows");
  k.patterns_reused = c("append.patterns_reused");
  k.patterns_rechecked = c("append.patterns_rechecked");
  k.evals_cached = c("append.evals_cached");
  k.evals_delta = c("append.evals_delta");
  k.evals_full = c("append.evals_full");
  return k;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The median of `samples` in reference units: each sample is scaled by
/// kReferenceSeconds over the mean kernel time of the groups run just
/// before and just after it (the first op has only the group after it).
double Normalised(const Timed& samples, const std::vector<double>& groups) {
  if (groups.empty()) return 0.0;
  std::vector<double> scaled;
  scaled.reserve(samples.seconds.size());
  for (size_t i = 0; i < samples.seconds.size(); ++i) {
    const size_t g = std::min(samples.group[i], groups.size());
    const double reference =
        g == 0 ? groups[0]
               : g == groups.size() ? groups[g - 1]
                                    : 0.5 * (groups[g - 1] + groups[g]);
    scaled.push_back(samples.seconds[i] * kReferenceSeconds / reference);
  }
  return Median(std::move(scaled));
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMiB;  // KiB
}

/// Runs the three pipeline steps Run() runs, as separate public calls
/// under the benchmark's own spans, and returns the selected rules.
Result<std::vector<PrescriptionRule>> RunDecomposed(const FairCap& solver,
                                                    StepSeconds* steps,
                                                    OpOutput* out) {
  StopWatch watch;
  std::vector<faircap::FrequentPattern> groups;
  {
    const obs::TraceSpan span("perfbench.mine_grouping_patterns");
    FAIRCAP_ASSIGN_OR_RETURN(groups, solver.MineGroupingPatterns());
  }
  steps->group = watch.ElapsedSeconds();
  out->patterns = groups.size();
  watch.Restart();
  {
    const obs::TraceSpan span("perfbench.mine_candidate_rules");
    FAIRCAP_ASSIGN_OR_RETURN(out->candidates,
                             solver.MineCandidateRules(groups));
  }
  steps->treatment = watch.ElapsedSeconds();
  watch.Restart();
  const faircap::FairCapOptions& options = solver.options();
  faircap::GreedyOptions greedy_options = options.greedy;
  greedy_options.num_threads = options.num_threads;  // as Run() does
  faircap::GreedyResult greedy;
  {
    const obs::TraceSpan span("perfbench.greedy_select");
    greedy = faircap::GreedySelect(out->candidates, solver.protected_mask(),
                                   options.fairness, options.coverage,
                                   greedy_options);
  }
  steps->select = watch.ElapsedSeconds();
  std::vector<PrescriptionRule> rules;
  rules.reserve(greedy.selected.size());
  for (const size_t i : greedy.selected) rules.push_back(out->candidates[i]);
  return rules;
}

/// Records the program's spans for the duration of a traced op.
class TracedScope {
 public:
  explicit TracedScope(bool traced) : traced_(traced) {
    if (traced_) {
      obs::ClearTrace();
      obs::EnableTracing();
    }
  }
  ~TracedScope() {
    if (traced_) obs::DisableTracing();
  }
  TracedScope(const TracedScope&) = delete;
  TracedScope& operator=(const TracedScope&) = delete;

 private:
  bool traced_;
};

class Runner {
 public:
  explicit Runner(const MeasureArgs& args) : args_(args) {}

  int Run();

 private:
  const WorkloadSpec& spec() const { return args_.spec; }
  const faircap::FairCapOptions& options() const { return spec().options; }
  size_t threads() const { return options().num_threads; }

  Status MeasureCold();
  Status MeasureAppend();

  /// Ingest + Create + Run (or the three steps, traced) over table.csv.
  Result<OpOutput> ColdOp(bool traced, std::unique_ptr<LoadedTable>*
                                           keep_table);

  /// One IncrementalSession over table.csv: base ingest, Create and the
  /// base cold Run — the append workload's set-up.
  Result<std::unique_ptr<faircap::IncrementalSession>> OpenSession(
      faircap::CausalDag* dag, faircap::Pattern* protected_pattern,
      bool record);

  /// ParseDelta + Append + Run (or the three steps, traced) for delta k.
  /// Uncounted appends (the cold workloads' append probe) feed only the
  /// append layer metrics, not op_s or the measured time.
  Result<OpOutput> AppendOp(faircap::IncrementalSession* session, size_t k,
                            bool traced, bool counted);

  /// Untimed cold FairCap over a copy of `df`: the ruleset a warm
  /// session must reproduce.
  Result<Digest> ColdReference(const DataFrame& df,
                               const faircap::CausalDag& dag,
                               const faircap::Pattern& protected_pattern);

  /// Runs the reference kernel on one thread and on the op's threads,
  /// once untimed and then `runs` timed times each.
  Status TimeReference(size_t runs);

  /// Per-layer metrics of the traced op just finished.
  void FoldTrace(double treatment_seconds);

  /// Counts a failed op and says why on stderr.
  void Fail(const std::string& what) {
    ++failed_;
    std::cerr << "perfbench: " << spec().name << ": " << what << "\n";
  }

  std::vector<Metric> EndToEndMetrics() const;
  std::vector<Metric> PerLayerMetrics() const;
  void WriteRecord(const std::vector<Metric>& metrics) const;

  const MeasureArgs& args_;
  Roles roles_;
  Samples s_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  double measured_ = 0.0;  ///< seconds of set-up and ops so far
  size_t table_rows_ = 0;
  Digest last_digest_;
  Counters op_counters_;      ///< last traced op
  Counters append_counters_;  ///< last append (op or probe)
  size_t patterns_ = 0;
  size_t candidates_ = 0;
  ProbeResult probe_;
  std::string trace_json_;
  std::unique_ptr<ReferenceKernel> kernel1_;
  std::unique_ptr<ReferenceKernel> kernel_n_;  ///< null on one thread
  uint64_t checksum1_ = 0;
  uint64_t checksum_n_ = 0;
};

Result<OpOutput> Runner::ColdOp(
    bool traced, std::unique_ptr<LoadedTable>* keep_table) {
  obs::MetricsRegistry::Global().Reset();
  OpOutput out;
  auto table = std::make_unique<LoadedTable>();
  std::vector<PrescriptionRule> rules;
  StepSeconds steps;
  double op_seconds = 0.0;
  {
    const TracedScope scope(traced);
    StopWatch watch;
    // Untraced ops set up several times (the last table is used), so a
    // run holds enough set-up samples where ingest is short.
    const size_t repeats = traced ? 1 : spec().setup_repeats;
    for (size_t r = 0; r < repeats; ++r) {
      *table = LoadedTable();  // freeing the last table is not set-up
      watch.Restart();
      FAIRCAP_ASSIGN_OR_RETURN(
          *table, LoadTable(TablePath(args_.inputs), DagPath(args_.inputs),
                            roles_));
      const double setup_seconds = watch.ElapsedSeconds();
      measured_ += setup_seconds;
      if (!traced) s_.setup_s.Add(setup_seconds, s_.ref1_groups.size());
    }
    watch.Restart();
    std::optional<FairCap> solver;
    {
      const obs::TraceSpan span("perfbench.create");
      FAIRCAP_ASSIGN_OR_RETURN(
          FairCap created,
          FairCap::Create(&table->df, &table->dag, table->protected_pattern,
                          options()));
      solver.emplace(std::move(created));
    }
    steps.create = watch.ElapsedSeconds();
    if (traced) {
      FAIRCAP_ASSIGN_OR_RETURN(rules, RunDecomposed(*solver, &steps, &out));
    } else {
      FAIRCAP_ASSIGN_OR_RETURN(faircap::FairCapResult result, solver->Run());
      rules = std::move(result.rules);
    }
    op_seconds = watch.ElapsedSeconds();
  }
  table_rows_ = table->df.num_rows();
  out.digest = MakeDigest(rules, table->df.schema());
  measured_ += op_seconds;
  s_.rss_mb.push_back(PeakRssMiB());
  s_.infer_s.push_back(table->infer_seconds);
  s_.parse_s.push_back(table->parse_seconds);
  if (traced) {
    s_.traced_op_s.Add(op_seconds, s_.ref1_groups.size());
    s_.create_s.push_back(steps.create);
    s_.group_s.push_back(steps.group);
    s_.treatment_s.push_back(steps.treatment);
    s_.select_s.push_back(steps.select);
    op_counters_ = ReadCounters();
    FoldTrace(steps.treatment);
    if (keep_table != nullptr) *keep_table = std::move(table);
  } else {
    s_.op_s.Add(op_seconds, s_.ref1_groups.size());
  }
  return out;
}

Result<std::unique_ptr<faircap::IncrementalSession>> Runner::OpenSession(
    faircap::CausalDag* dag, faircap::Pattern* protected_pattern,
    bool record) {
  obs::MetricsRegistry::Global().Reset();
  StopWatch setup;
  FAIRCAP_ASSIGN_OR_RETURN(
      LoadedTable table,
      LoadTable(TablePath(args_.inputs), DagPath(args_.inputs), roles_));
  *dag = table.dag;
  *protected_pattern = table.protected_pattern;
  table_rows_ = table.df.num_rows();
  StopWatch watch;
  FAIRCAP_ASSIGN_OR_RETURN(
      faircap::IncrementalSession session,
      faircap::IncrementalSession::Create(std::move(table.df),
                                          std::move(table.dag),
                                          table.protected_pattern, options()));
  const double create_seconds = watch.ElapsedSeconds();
  auto owned =
      std::make_unique<faircap::IncrementalSession>(std::move(session));
  FAIRCAP_ASSIGN_OR_RETURN(const faircap::FairCapResult base, owned->Run());
  const double setup_seconds = setup.ElapsedSeconds();
  if (record) {
    measured_ += setup_seconds;
    s_.setup_s.Add(setup_seconds, s_.ref1_groups.size());
    s_.infer_s.push_back(table.infer_seconds);
    s_.parse_s.push_back(table.parse_seconds);
    s_.create_s.push_back(create_seconds);
  }
  return owned;
}

Result<OpOutput> Runner::AppendOp(faircap::IncrementalSession* session,
                                  size_t k, bool traced, bool counted) {
  obs::MetricsRegistry::Global().Reset();
  OpOutput out;
  std::vector<PrescriptionRule> rules;
  StepSeconds steps;
  double parse_seconds = 0.0;
  double extend_seconds = 0.0;
  double op_seconds = 0.0;
  {
    const TracedScope scope(traced);
    StopWatch total;
    StopWatch watch;
    DataFrame delta;
    {
      const obs::TraceSpan span("perfbench.parse_delta");
      FAIRCAP_ASSIGN_OR_RETURN(
          delta, faircap::DatasetRepository::ParseDelta(
                     session->df().schema(), DeltaPath(args_.inputs, k)));
    }
    parse_seconds = watch.ElapsedSeconds();
    watch.Restart();
    {
      const obs::TraceSpan span("perfbench.append");
      FAIRCAP_RETURN_NOT_OK(session->Append(delta));
    }
    extend_seconds = watch.ElapsedSeconds();
    if (traced) {
      FAIRCAP_ASSIGN_OR_RETURN(
          rules, RunDecomposed(session->faircap(), &steps, &out));
    } else {
      FAIRCAP_ASSIGN_OR_RETURN(faircap::FairCapResult result, session->Run());
      rules = std::move(result.rules);
    }
    op_seconds = total.ElapsedSeconds();
  }
  out.digest = MakeDigest(rules, session->df().schema());
  s_.delta_parse_s.push_back(parse_seconds);
  s_.extend_s.push_back(extend_seconds);
  s_.remine_s.push_back(op_seconds - parse_seconds - extend_seconds);
  append_counters_ = ReadCounters();
  if (!counted) return out;
  measured_ += op_seconds;
  if (traced) {
    s_.traced_op_s.Add(op_seconds, s_.ref1_groups.size());
    s_.group_s.push_back(steps.group);
    s_.treatment_s.push_back(steps.treatment);
    s_.select_s.push_back(steps.select);
    op_counters_ = append_counters_;
    FoldTrace(steps.treatment);
  } else {
    s_.op_s.Add(op_seconds, s_.ref1_groups.size());
  }
  return out;
}

Result<Digest> Runner::ColdReference(
    const DataFrame& df, const faircap::CausalDag& dag,
    const faircap::Pattern& protected_pattern) {
  const DataFrame copy(df);
  faircap::FairCapOptions cold = options();
  cold.incremental_state = nullptr;
  FAIRCAP_ASSIGN_OR_RETURN(const FairCap solver,
                           FairCap::Create(&copy, &dag, protected_pattern,
                                           cold));
  FAIRCAP_ASSIGN_OR_RETURN(const faircap::FairCapResult result, solver.Run());
  return MakeDigest(result.rules, copy.schema());
}

Status Runner::TimeReference(size_t runs) {
  // Built on first use, after the first op's peak RSS was read, so the
  // kernel's buffers never reach peak_rss_mb.
  const bool first = kernel1_ == nullptr;
  if (first) {
    kernel1_ = std::make_unique<ReferenceKernel>(1);
    if (threads() > 1) {
      kernel_n_ = std::make_unique<ReferenceKernel>(threads());
    }
  }
  // The untimed first run refills the caches the op evicted, so the op's
  // own footprint does not reach the kernel's time.
  double sum1 = 0.0;
  double sum_n = 0.0;
  for (size_t r = 0; r <= runs; ++r) {
    uint64_t checksum1 = 0;
    const double seconds1 = kernel1_->Time(&checksum1);
    uint64_t checksum_n = 0;
    const double seconds_n =
        kernel_n_ != nullptr ? kernel_n_->Time(&checksum_n) : seconds1;
    if (r > 0) {
      s_.ref1_s.push_back(seconds1);
      s_.refn_s.push_back(seconds_n);
      sum1 += seconds1;
      sum_n += seconds_n;
    }
    if (first && r == 0) {
      checksum1_ = checksum1;
      checksum_n_ = checksum_n;
    } else if (checksum1 != checksum1_ || checksum_n != checksum_n_) {
      return Status::Internal("the reference kernel's result changed");
    }
  }
  s_.ref1_groups.push_back(sum1 / static_cast<double>(runs));
  s_.refn_groups.push_back(sum_n / static_cast<double>(runs));
  return Status::OK();
}

void Runner::FoldTrace(double treatment_seconds) {
  trace_json_ = CaptureChromeTrace();
  const std::map<std::string, SpanTotals> spans = SummarizeSpans(trace_json_);
  auto self = [&spans](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.self_seconds;
  };
  s_.lattice_self_s.push_back(self("lattice"));
  s_.eval_self_s.push_back(self("eval"));
  // Worker pattern time over the workers' Step-2 capacity. Inline runs
  // (one thread) have no workers: the calling thread runs every pattern.
  const auto pattern = spans.find("pattern");
  if (pattern != spans.end()) {
    const SpanTotals& p = pattern->second;
    s_.busy_frac.push_back(
        threads() > 1 ? Ratio(p.worker_seconds,
                              static_cast<double>(threads()) *
                                  treatment_seconds)
                      : Ratio(p.total_seconds, treatment_seconds));
  }
}

Status Runner::MeasureCold() {
  FAIRCAP_ASSIGN_OR_RETURN(const Digest reference,
                           ReadReferenceDigest(args_.inputs));

  std::unique_ptr<LoadedTable> traced_table;
  OpOutput traced_op;
  for (size_t i = 0;; ++i) {
    // The traced run interleaves untraced and traced ops (u t t u ...),
    // so both sides of trace.overhead_frac see the same host conditions
    // and neither always gets the process's first op.
    const bool traced = args_.trace && (i % 4 == 1 || i % 4 == 2);
    ++attempted_;
    Result<OpOutput> op = ColdOp(traced, &traced_table);
    if (!op.ok()) {
      Fail("op failed: " + op.status().ToString());
      break;
    }
    std::string why;
    if (!DigestsMatch(op->digest, reference, &why)) {
      Fail("ruleset differs from the reference: " + why);
    }
    last_digest_ = op->digest;
    if (traced) traced_op = std::move(op).ValueOrDie();
    // Host speed next to every op: ~10-20% of an op's wall time.
    FAIRCAP_RETURN_NOT_OK(TimeReference(3));
    if (measured_ >= args_.seconds && (!args_.trace || i >= 1)) break;
  }
  if (!args_.trace || traced_table == nullptr) return Status::OK();

  patterns_ = traced_op.patterns;
  candidates_ = traced_op.candidates.size();
  FAIRCAP_ASSIGN_OR_RETURN(
      probe_, RunLayerProbe(traced_table->df, traced_table->dag,
                            traced_table->protected_pattern, options(),
                            traced_op.candidates));
  traced_table.reset();

  // Append probe: the append layers measured once on this workload's
  // table plus its held-out delta, checked against a cold run.
  faircap::CausalDag dag;
  faircap::Pattern protected_pattern;
  ++attempted_;
  Result<std::unique_ptr<faircap::IncrementalSession>> session =
      OpenSession(&dag, &protected_pattern, false);
  if (!session.ok()) {
    Fail("append probe set-up failed: " + session.status().ToString());
    return Status::OK();
  }
  Result<OpOutput> appended = AppendOp(session->get(), 0, false, false);
  if (!appended.ok()) {
    Fail("append probe failed: " + appended.status().ToString());
    return Status::OK();
  }
  FAIRCAP_ASSIGN_OR_RETURN(
      const Digest cold,
      ColdReference((*session)->df(), dag, protected_pattern));
  std::string why;
  if (!DigestsMatch(appended->digest, cold, &why)) {
    Fail("append probe ruleset differs from a cold run: " + why);
  }
  return Status::OK();
}

Status Runner::MeasureAppend() {
  std::vector<std::optional<Digest>> batch_reference(spec().num_deltas);
  size_t op_index = 0;
  for (size_t session_index = 0;; ++session_index) {
    faircap::CausalDag dag;
    faircap::Pattern protected_pattern;
    Result<std::unique_ptr<faircap::IncrementalSession>> opened =
        OpenSession(&dag, &protected_pattern, true);
    if (!opened.ok()) {
      ++attempted_;  // set-up is not an op, but a failed one counts as one
      Fail("session set-up failed: " + opened.status().ToString());
      break;
    }
    faircap::IncrementalSession* session = opened->get();
    bool ok = true;
    OpOutput traced_op;
    for (size_t k = 0; k < spec().num_deltas; ++k, ++op_index) {
      const bool traced =
          args_.trace && (op_index % 4 == 1 || op_index % 4 == 2);
      ++attempted_;
      Result<OpOutput> op = AppendOp(session, k, traced, true);
      if (!op.ok()) {
        Fail("append op failed: " + op.status().ToString());
        ok = false;
        break;
      }
      // Every session replays the same deltas, so batch k must give the
      // same ruleset each time.
      std::string why;
      if (!batch_reference[k].has_value()) {
        batch_reference[k] = op->digest;
      } else if (!DigestsMatch(op->digest, *batch_reference[k], &why)) {
        Fail("batch " + std::to_string(k) + " differs from session 0: " + why);
      }
      last_digest_ = op->digest;
      if (traced && k + 1 == spec().num_deltas) {
        traced_op = std::move(op).ValueOrDie();
      }
    }
    if (!ok) break;
    s_.rss_mb.push_back(PeakRssMiB());
    // Host speed next to every session (one set-up and its short ops):
    // ~10% of a session's wall time.
    FAIRCAP_RETURN_NOT_OK(TimeReference(3));
    if (session_index == 0) {
      // Untimed: the final warm ruleset against a cold FairCap over the
      // final table, as bench_append checks it.
      FAIRCAP_ASSIGN_OR_RETURN(
          const Digest cold,
          ColdReference(session->df(), dag, protected_pattern));
      std::string why;
      if (!DigestsMatch(last_digest_, cold, &why)) {
        Fail("final warm ruleset differs from a cold run: " + why);
      }
      if (args_.trace && !traced_op.candidates.empty()) {
        patterns_ = traced_op.patterns;
        candidates_ = traced_op.candidates.size();
        FAIRCAP_ASSIGN_OR_RETURN(
            probe_, RunLayerProbe(session->df(), dag, protected_pattern,
                                  options(), traced_op.candidates));
      }
    }
    if (measured_ >= args_.seconds) break;
  }
  return Status::OK();
}

std::vector<Metric> Runner::EndToEndMetrics() const {
  const double attempted = static_cast<double>(attempted_);
  return {
      // Set-up runs on one thread, ops on the workload's threads; each is
      // scaled by the reference kernel on as many threads.
      {"setup_s", Normalised(s_.setup_s, s_.ref1_groups), "s"},
      {"op_s", Normalised(s_.op_s, s_.refn_groups), "s"},
      // The first op's (or session's) high-water mark: what one
      // faircap_cli-style run in a fresh process peaks at. Later ops only
      // add allocator fragmentation no single run sees.
      {"peak_rss_mb", s_.rss_mb.empty() ? PeakRssMiB() : s_.rss_mb.front(),
       "MB"},
      {"success_rate",
       Ratio(attempted - static_cast<double>(failed_), attempted),
       "fraction"},
  };
}

std::vector<Metric> Runner::PerLayerMetrics() const {
  const Counters& k = op_counters_;
  const Counters& a = append_counters_;
  const double parse_s = Median(s_.parse_s);
  const double evals = k.lattice_evals;
  const double engine_lookups = k.engine_hits + k.engine_misses;
  const double patterns_checked = a.patterns_reused + a.patterns_rechecked;
  const double append_evals = a.evals_cached + a.evals_delta + a.evals_full;
  return {
      {"ingest.infer_s", Median(s_.infer_s), "s"},
      {"ingest.parse_s", parse_s, "s"},
      {"ingest.rows", static_cast<double>(table_rows_), "count"},
      {"ingest.rows_per_s", Ratio(static_cast<double>(table_rows_), parse_s),
       "1/s"},
      {"ingest.delta_parse_s", Median(s_.delta_parse_s), "s"},
      {"dataframe.mask_cold_us", probe_.mask_cold_us, "us"},
      {"dataframe.mask_warm_us", probe_.mask_warm_us, "us"},
      {"dataframe.index_hits", k.index_hits, "count"},
      {"dataframe.index_misses", k.index_misses, "count"},
      {"dataframe.index_hit_ratio",
       Ratio(k.index_hits, k.index_hits + k.index_misses), "fraction"},
      {"dataframe.index_mb", k.index_bytes / kMiB, "MB"},
      {"mining.group_s", Median(s_.group_s), "s"},
      {"mining.patterns", static_cast<double>(patterns_), "count"},
      {"mining.lattice_evals", evals, "count"},
      {"mining.lattice_self_s", Median(s_.lattice_self_s), "s"},
      {"causal.partition_build_ms", probe_.partition_build_ms, "ms"},
      {"causal.engine_build_ms", probe_.engine_build_ms, "ms"},
      {"causal.accumulate_us", probe_.accumulate_us, "us"},
      {"causal.accumulate_mrows_per_s", probe_.accumulate_mrows_per_s,
       "Mrows/s"},
      {"causal.solve_us", probe_.solve_us, "us"},
      {"causal.eval_self_s", Median(s_.eval_self_s), "s"},
      {"causal.solves", k.solves, "count"},
      {"causal.sparse_passes_per_eval", Ratio(k.sparse_passes, evals),
       "passes/eval"},
      {"causal.fp_staged_passes_per_eval", Ratio(k.fp_staged_passes, evals),
       "passes/eval"},
      {"causal.int_passes_per_eval", Ratio(k.int_passes, evals),
       "passes/eval"},
      {"causal.engine_lookups", engine_lookups, "count"},
      {"causal.engine_hit_ratio", Ratio(k.engine_hits, engine_lookups),
       "fraction"},
      {"causal.engine_cache_mb", k.engine_bytes / kMiB, "MB"},
      {"scheduler.tasks", k.tasks, "count"},
      {"scheduler.tasks_per_eval", Ratio(k.tasks, evals), "tasks/eval"},
      {"scheduler.stolen", k.stolen, "count"},
      {"scheduler.helped", k.helped, "count"},
      {"scheduler.busy_frac", Median(s_.busy_frac), "fraction"},
      {"simd.accumulate_rows", k.accumulate_rows, "count"},
      {"core.create_s", Median(s_.create_s), "s"},
      {"core.treatment_s", Median(s_.treatment_s), "s"},
      {"core.select_s", Median(s_.select_s), "s"},
      {"core.candidates", static_cast<double>(candidates_), "count"},
      {"append.extend_s", Median(s_.extend_s), "s"},
      {"append.remine_s", Median(s_.remine_s), "s"},
      {"append.patterns_checked", patterns_checked, "count"},
      {"append.pattern_reuse_ratio",
       Ratio(a.patterns_reused, patterns_checked), "fraction"},
      {"append.evals", append_evals, "count"},
      {"append.evals_delta_frac", Ratio(a.evals_delta, append_evals),
       "fraction"},
      {"host.reference_s", Median(s_.ref1_s), "s"},
      {"host.reference_threads_s", Median(s_.refn_s), "s"},
      {"host.setup_wall_s", Median(s_.setup_s.seconds), "s"},
      {"host.op_wall_s", Median(s_.op_s.seconds), "s"},
      {"trace.overhead_frac",
       Ratio(Normalised(s_.traced_op_s, s_.refn_groups),
             Normalised(s_.op_s, s_.refn_groups)) -
           1.0,
       "fraction"},
  };
}

void Runner::WriteRecord(const std::vector<Metric>& metrics) const {
  const std::string stem = args_.artifacts + "/" + spec().name;
  if (!trace_json_.empty()) {
    std::ofstream trace(stem + "-trace.json");
    trace << trace_json_ << "\n";
  }
  auto list = [](const std::vector<double>& values) {
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      out += (i == 0 ? "" : ",") + Num(values[i]);
    }
    return out + "]";
  };
  std::ofstream out(stem + "-seed" + std::to_string(args_.seed) + "-trace" +
                    (args_.trace ? "1" : "0") + ".json");
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(DigestHash(last_digest_)));
  out << "{\"workload\":\"" << spec().name << "\",\"seed\":" << args_.seed
      << ",\"trace\":" << (args_.trace ? 1 : 0)
      << ",\"threads\":" << threads() << ",\"rows\":" << table_rows_
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"simd\":\""
      << faircap::simd::SimdLevelName(faircap::simd::ActiveSimdLevel())
      << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
      << "\",\"build_id\":\"" << args_.build_id
      << "\",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
      << ",\"ruleset_digest\":\"" << hash
      << "\",\"setup_s_samples\":" << list(s_.setup_s.seconds)
      << ",\"op_s_samples\":" << list(s_.op_s.seconds)
      << ",\"traced_op_s_samples\":" << list(s_.traced_op_s.seconds)
      << ",\"rss_mb_samples\":" << list(s_.rss_mb)
      << ",\"reference_s_samples\":" << list(s_.ref1_s)
      << ",\"reference_threads_s_samples\":" << list(s_.refn_s)
      << ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ",") << "\"" << metrics[i].name
        << "\":{\"value\":" << Num(metrics[i].value) << ",\"unit\":\""
        << metrics[i].unit << "\"}";
  }
  out << "}}\n";
}

int Runner::Run() {
  Result<Roles> roles = ReadRoles(args_.inputs);
  if (!roles.ok()) {
    std::cerr << "perfbench: " << roles.status().ToString() << "\n";
    return 1;
  }
  roles_ = std::move(roles).ValueOrDie();
  const Status status = spec().append ? MeasureAppend() : MeasureCold();
  if (!status.ok()) {
    std::cerr << "perfbench: " << spec().name << ": "
              << status.ToString() << "\n";
    return 1;
  }
  if (attempted_ == 0) return 1;

  const std::vector<Metric> metrics =
      args_.trace ? PerLayerMetrics() : EndToEndMetrics();
  WriteRecord(metrics);
  std::cout << "perfbench: workload=" << spec().name
            << " seed=" << args_.seed << " trace=" << (args_.trace ? 1 : 0)
            << " threads=" << threads() << " rows=" << table_rows_
            << " nproc=" << std::thread::hardware_concurrency() << " simd="
            << faircap::simd::SimdLevelName(faircap::simd::ActiveSimdLevel())
            << " build=" << PERFBENCH_BUILD_TYPE << " ops=" << attempted_
            << " failed=" << failed_ << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << Num(m.value) << " " << m.unit
              << "\n";
  }
  std::cout << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted_
            << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
              << "\": {\"value\": " << Num(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace

int Measure(const MeasureArgs& args) { return Runner(args).Run(); }

}  // namespace perfbench
