// faircap_cli: FairCap from the shell, in four verbs.
//
//   faircap_cli [run] --dataset=NAME [--rows=N] [--seed=S] [--set=k=v,...]
//   faircap_cli [run] --data=survey.csv --dag=survey.dag --outcome=Salary
//               --mutable=Education,Role --protected="Gender=female"
//               [--fairness=group-sp|indi-sp|group-bgl|indi-bgl]
//               [--fairness-threshold=10000]
//               [--coverage=group|rule --theta=0.5 --theta-p=0.5]
//               [--min-support=0.1] [--max-rules=20] [--threads=0]
//               [--index-budget-mb=64] [--natural-language]
//   faircap_cli gen --dataset=synthetic --rows=1000000 --out=data.csv
//               [--dag-out=data.dag] [--seed=S] [--set=k=v,...]
//   faircap_cli ingest --data=data.csv [--chunk-kb=1024] [--threads=1]
//   faircap_cli append --dataset=NAME (--delta=FILE.csv[,FILE2] |
//               --delta-fraction=0.01 --delta-batches=4) [--verify]
//   faircap_cli datasets
//
// Each verb accepts only the flags it reads (plus the common ones); an
// unknown flag fails with its name and the verb.
//
// Every dataset — the paper generators, the synthetic scale workload, and
// CSV+DAG files — loads through the DatasetRepository; file-backed data
// comes in via the streaming columnar ingest path, so the pipeline starts
// with a warm PredicateIndex. The protected group is a comma-separated
// conjunction of attr=value equalities; the DAG file uses the "A -> B;"
// dialect of causal/dag_io.h.

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>

#include "causal/dag_io.h"
#include "core/faircap.h"
#include "core/incremental.h"
#include "core/metrics.h"
#include "core/templates.h"
#include "dataframe/csv.h"
#include "ingest/chunked_csv_reader.h"
#include "ingest/repository.h"
#include "util/logging.h"
#include "util/obs/metrics.h"
#include "util/obs/run_report.h"
#include "util/obs/trace.h"
#include "util/simd/simd.h"
#include "util/string_util.h"
#include "util/timer.h"

using namespace faircap;

namespace {

struct CliArgs {
  std::map<std::string, std::string> values;

  static CliArgs Parse(int argc, char** argv, int first) {
    CliArgs args;
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      arg = arg.substr(2);
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        args.values[arg] = "true";
      } else {
        args.values[arg.substr(0, eq)] = arg.substr(eq + 1);
      }
    }
    return args;
  }

  std::string Get(const std::string& key, const std::string& fallback = "") const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  bool Has(const std::string& key) const { return values.count(key) != 0; }

  /// Numeric flags are parsed strictly: the whole value must be a finite
  /// number, so "--rows=abc" or "--theta=nan" fail with the flag's name
  /// instead of running on a silently coerced value.
  Result<double> GetDouble(const std::string& key, double fallback) const {
    const auto it = values.find(key);
    if (it == values.end()) return fallback;
    const std::string& text = it->second;
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
        end != text.c_str() + text.size() || !std::isfinite(value)) {
      return Invalid(key, "a finite number");
    }
    return value;
  }
  /// A finite number >= 0 (sizes and budgets that are cast to size_t).
  Result<double> GetNonNegative(const std::string& key,
                                double fallback) const {
    FAIRCAP_ASSIGN_OR_RETURN(const double value, GetDouble(key, fallback));
    if (value < 0.0) return Invalid(key, "a non-negative number");
    return value;
  }
  /// Count flags (--rows, --threads, ...): a non-negative integer no
  /// larger than 2^53, so the conversion below is exact.
  Result<size_t> GetCount(const std::string& key, size_t fallback) const {
    FAIRCAP_ASSIGN_OR_RETURN(
        const double value,
        GetDouble(key, static_cast<double>(fallback)));
    if (value < 0.0 || value != std::floor(value) ||
        value > 9007199254740992.0) {
      return Invalid(key, "a non-negative integer");
    }
    return static_cast<size_t>(value);
  }

 private:
  Status Invalid(const std::string& key, const std::string& want) const {
    return Status::InvalidArgument("invalid --" + key + "=" + Get(key) +
                                   ": want " + want);
  }
};

/// The flags `verb` reads, common ones included; false for an unknown verb.
bool KnownFlags(const std::string& verb, std::set<std::string>* flags) {
  *flags = {"help", "simd", "log-level", "trace-json", "metrics-json"};
  const auto add = [flags](std::initializer_list<const char*> names) {
    flags->insert(names.begin(), names.end());
  };
  if (verb == "run" || verb == "append") {
    // Dataset source, solver options, and the protected group.
    add({"dataset", "rows", "seed", "set", "data", "dag", "outcome",
         "mutable", "protected", "fairness", "fairness-threshold",
         "coverage", "theta", "theta-p", "min-support", "max-rules",
         "max-intervention-predicates", "min-group-size",
         "min-subgroup-arm", "threads", "engine-budget-mb"});
  }
  if (verb == "run") {
    add({"index-budget-mb", "natural-language", "unit"});
  } else if (verb == "append") {
    add({"delta", "delta-fraction", "delta-batches", "verify"});
  } else if (verb == "gen") {
    add({"dataset", "rows", "seed", "set", "out", "dag-out"});
  } else if (verb == "ingest") {
    add({"data", "chunk-kb", "threads"});
  } else if (verb != "datasets" && verb != "help") {
    return false;
  }
  return true;
}

int Fail(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  return 1;
}

void PrintUsage() {
  std::cout <<
      "usage: faircap_cli [run] --dataset=NAME | --data=FILE.csv --dag=FILE.dag\n"
      "                   --outcome=ATTR --mutable=A,B,C\n"
      "                   --protected=\"Attr=value[,Attr2=v2]\"\n"
      "       faircap_cli gen --dataset=NAME --rows=N --out=FILE.csv\n"
      "                   [--dag-out=FILE.dag] [--seed=S] [--set=k=v,...]\n"
      "       faircap_cli ingest --data=FILE.csv [--chunk-kb=1024]\n"
      "       faircap_cli append --dataset=NAME | --data/--dag/--outcome...\n"
      "                   (--delta=FILE.csv[,FILE2] |\n"
      "                    --delta-fraction=0.01 --delta-batches=4)\n"
      "                   [--verify] [run options]\n"
      "       faircap_cli datasets\n"
      "run options:\n"
      "  --rows=N --seed=S --set=k=v,...   (repository dataset knobs)\n"
      "  --fairness=group-sp|indi-sp|group-bgl|indi-bgl\n"
      "  --fairness-threshold=X      (SP epsilon / BGL tau)\n"
      "  --coverage=group|rule --theta=0.5 --theta-p=0.5\n"
      "  --min-support=0.1 --max-rules=20 --max-intervention-predicates=2\n"
      "  --min-group-size=10 --min-subgroup-arm=5 --index-budget-mb=0\n"
      "  --engine-budget-mb=0     (CATE engine cache cap; 0 = unlimited)\n"
      "  --threads=0              (pool workers over grouping patterns\n"
      "                            and greedy trials; the main thread\n"
      "                            works too, so T > 1 runs on T + 1\n"
      "                            threads. 0 = hardware, 1 = sequential.\n"
      "                            Results are identical at every\n"
      "                            thread count)\n"
      "  --natural-language --unit=$\n"
      "common options:\n"
      "  --simd=scalar|avx2|avx512   (pin the kernel ISA tier; default:\n"
      "                            best supported. Results are identical\n"
      "                            at every tier. FAIRCAP_SIMD env var\n"
      "                            does the same but clamps with a\n"
      "                            warning instead of failing)\n"
      "  --log-level=debug|info|warn|error   (stderr verbosity; default\n"
      "                            warn. FAIRCAP_LOG env var does the\n"
      "                            same; the flag wins)\n"
      "  --trace-json=FILE        (record spans; write a Chrome\n"
      "                            trace-event / Perfetto-loadable JSON\n"
      "                            timeline at exit. FAIRCAP_TRACE=FILE\n"
      "                            env var does the same)\n"
      "  --metrics-json=FILE      (write the machine-readable run report:\n"
      "                            per-phase wall times plus the full\n"
      "                            metrics registry — scheduler, caches,\n"
      "                            ingest, SIMD tier, estimation splits)\n"
      "ingest options:\n"
      "  --chunk-kb=1024 --threads=1   (parse pool workers; the main\n"
      "                            thread parses too. 0 = hardware)\n"
      "append options (incremental re-mining; takes the dataset and\n"
      "solver run options):\n"
      "  --delta=FILE.csv[,FILE2]  (delta CSVs parsed against the resident\n"
      "                            schema, appended batch by batch with a\n"
      "                            re-mine after each)\n"
      "  --delta-fraction=0.01 --delta-batches=4   (generated datasets:\n"
      "                            hold out F*rows per batch and append\n"
      "                            them back — the 1%-delta workload)\n"
      "  --verify                 (cold solver over the final table;\n"
      "                            fails on any ruleset mismatch)\n";
}

/// Repository request from the shared flags: --rows, --seed, and
/// --set=k=v[,k2=v2...] for generator-specific knobs.
Result<DatasetRequest> RequestFromArgs(const CliArgs& args,
                                       const std::string& name) {
  DatasetRequest request;
  request.name = name;
  FAIRCAP_ASSIGN_OR_RETURN(request.rows, args.GetCount("rows", 0));
  FAIRCAP_ASSIGN_OR_RETURN(request.seed, args.GetCount("seed", 0));
  for (const std::string& kv : Split(args.Get("set"), ',')) {
    if (std::string(Trim(kv)).empty()) continue;
    const size_t eq = kv.find('=');
    if (eq == std::string::npos) {
      request.params[std::string(Trim(kv))] = "true";
    } else {
      request.params[std::string(Trim(kv.substr(0, eq)))] =
          std::string(Trim(kv.substr(eq + 1)));
    }
  }
  return request;
}

/// Loads the run/gen dataset: either a named repository entry or a
/// CSV+DAG pair routed through the repository's "file" factory (streaming
/// ingest).
Result<Dataset> LoadFromArgs(const CliArgs& args) {
  if (args.Has("dataset")) {
    FAIRCAP_ASSIGN_OR_RETURN(DatasetRequest request,
                             RequestFromArgs(args, args.Get("dataset")));
    return DatasetRepository::Global().Load(request);
  }
  if (!args.Has("data") || !args.Has("dag") || !args.Has("outcome")) {
    return Status::InvalidArgument(
        "need --dataset=NAME or --data/--dag/--outcome/--protected");
  }
  FAIRCAP_ASSIGN_OR_RETURN(DatasetRequest request,
                           RequestFromArgs(args, "file"));
  request.params["path"] = args.Get("data");
  request.params["dag"] = args.Get("dag");
  request.params["outcome"] = args.Get("outcome");
  request.params["mutable"] = args.Get("mutable");
  request.params["protected"] = args.Get("protected");
  return DatasetRepository::Global().Load(request);
}

int RunDatasets() {
  std::cout << "registered datasets:\n";
  for (const auto& [name, description] : DatasetRepository::Global().List()) {
    std::cout << "  " << name << " — " << description << "\n";
  }
  return 0;
}

int RunGen(const CliArgs& args) {
  if (!args.Has("out")) return Fail("gen needs --out=FILE.csv");
  const std::string dataset = args.Get("dataset", "synthetic");
  const auto request = RequestFromArgs(args, dataset);
  if (!request.ok()) return Fail(request.status().ToString());
  auto loaded = DatasetRepository::Global().Load(*request);
  if (!loaded.ok()) return Fail(loaded.status().ToString());

  const std::string out_path = args.Get("out");
  const Status written = WriteCsv(loaded->df, out_path);
  if (!written.ok()) return Fail(written.ToString());

  std::string dag_path = args.Get("dag-out");
  if (dag_path.empty()) {
    // Replace the extension of the *filename* only; a dot in a directory
    // component ("./big", "data.v2/out") is not an extension.
    const size_t slash = out_path.rfind('/');
    const size_t dot = out_path.rfind('.');
    const bool has_ext =
        dot != std::string::npos && (slash == std::string::npos || dot > slash);
    dag_path = out_path.substr(0, has_ext ? dot : out_path.size()) + ".dag";
  }
  std::ofstream dag_out(dag_path);
  if (!dag_out) return Fail("cannot open '" + dag_path + "' for writing");
  dag_out << DagToText(loaded->dag);
  if (!dag_out) return Fail("write failed for '" + dag_path + "'");

  std::cout << "dataset: " << dataset << " (" << loaded->df.num_rows()
            << " rows, " << loaded->df.num_columns() << " columns)\n"
            << "csv: " << out_path << "\ndag: " << dag_path
            << "\nprotected: "
            << loaded->protected_pattern.ToString(loaded->df.schema()) << " ("
            << loaded->protected_pattern.Evaluate(loaded->df).Count()
            << " rows)\n";
  return 0;
}

int RunIngest(const CliArgs& args) {
  if (!args.Has("data")) return Fail("ingest needs --data=FILE.csv");
  const std::string path = args.Get("data");
  IngestOptions options;
  const auto chunk_kb = args.GetNonNegative("chunk-kb", 1024.0);
  if (!chunk_kb.ok()) return Fail(chunk_kb.status().ToString());
  options.chunk_bytes = static_cast<size_t>(*chunk_kb * 1024.0);
  const auto threads = args.GetCount("threads", 1);
  if (!threads.ok()) return Fail(threads.status().ToString());
  options.num_threads = *threads;

  IngestStats stats;
  auto df = StreamCsvInferSchema(path, options, &stats);
  if (!df.ok()) return Fail(df.status().ToString());

  const auto index_stats = df->predicate_index().GetStats();
  std::cout << "streamed " << stats.rows << " rows x " << df->num_columns()
            << " columns (" << stats.bytes << " bytes, " << stats.chunks
            << (stats.parse_threads > 1 ? " segments on " : " chunks on ")
            << stats.parse_threads << (stats.parse_threads > 1
                                           ? " threads"
                                           : " thread")
            << ") in " << FormatDouble(stats.seconds) << "s — "
            << FormatDouble(stats.RowsPerSecond() / 1e6)
            << "M rows/s\nwarm index: " << index_stats.warm_atom_masks
            << " category masks (" << index_stats.atom_bytes << " bytes)\n";
  return 0;
}

/// Protected pattern from --protected clauses, or `fallback` (the dataset
/// ground truth) when the flag is absent.
Result<Pattern> ParseProtected(const CliArgs& args, const DataFrame& df,
                               Pattern fallback) {
  Pattern protected_pattern = std::move(fallback);
  if (args.Has("protected")) {
    std::vector<Predicate> predicates;
    for (const std::string& clause : Split(args.Get("protected"), ',')) {
      const size_t eq = clause.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("malformed --protected clause '" +
                                       clause + "'");
      }
      const std::string attr = std::string(Trim(clause.substr(0, eq)));
      const std::string value = std::string(Trim(clause.substr(eq + 1)));
      FAIRCAP_ASSIGN_OR_RETURN(const size_t idx, df.schema().IndexOf(attr));
      predicates.emplace_back(idx, CompareOp::kEq, Value(value));
    }
    protected_pattern = Pattern(std::move(predicates));
  }
  if (protected_pattern.empty()) {
    return Status::InvalidArgument(
        "no protected group: pass --protected=\"Attr=value\"");
  }
  return protected_pattern;
}

/// FairCapOptions from the shared run flags (used by `run` and `append`).
Result<FairCapOptions> OptionsFromArgs(const CliArgs& args) {
  FairCapOptions options;
  FAIRCAP_ASSIGN_OR_RETURN(options.apriori.min_support_fraction,
                           args.GetDouble("min-support", 0.1));
  FAIRCAP_ASSIGN_OR_RETURN(options.lattice.max_predicates,
                           args.GetCount("max-intervention-predicates", 2));
  FAIRCAP_ASSIGN_OR_RETURN(options.greedy.max_rules,
                           args.GetCount("max-rules", 20));
  FAIRCAP_ASSIGN_OR_RETURN(options.num_threads, args.GetCount("threads", 0));
  FAIRCAP_ASSIGN_OR_RETURN(options.cate.min_group_size,
                           args.GetCount("min-group-size", 10));
  FAIRCAP_ASSIGN_OR_RETURN(options.min_subgroup_arm,
                           args.GetCount("min-subgroup-arm", 5));
  FAIRCAP_ASSIGN_OR_RETURN(const double engine_budget_mb,
                           args.GetNonNegative("engine-budget-mb", 0.0));
  if (engine_budget_mb > 0.0) {
    options.engine_memory_budget =
        static_cast<size_t>(engine_budget_mb * 1024.0 * 1024.0);
  }

  const std::string fairness = args.Get("fairness");
  FAIRCAP_ASSIGN_OR_RETURN(const double threshold,
                           args.GetDouble("fairness-threshold", 0.0));
  if (fairness == "group-sp") {
    options.fairness = FairnessConstraint::GroupSP(threshold);
  } else if (fairness == "indi-sp") {
    options.fairness = FairnessConstraint::IndividualSP(threshold);
  } else if (fairness == "group-bgl") {
    options.fairness = FairnessConstraint::GroupBGL(threshold);
  } else if (fairness == "indi-bgl") {
    options.fairness = FairnessConstraint::IndividualBGL(threshold);
  } else if (!fairness.empty()) {
    return Status::InvalidArgument("unknown --fairness '" + fairness + "'");
  }

  const std::string coverage = args.Get("coverage");
  FAIRCAP_ASSIGN_OR_RETURN(const double theta, args.GetDouble("theta", 0.5));
  FAIRCAP_ASSIGN_OR_RETURN(const double theta_p,
                           args.GetDouble("theta-p", theta));
  if (coverage == "group") {
    options.coverage = CoverageConstraint::Group(theta, theta_p);
  } else if (coverage == "rule") {
    options.coverage = CoverageConstraint::Rule(theta, theta_p);
  } else if (!coverage.empty()) {
    return Status::InvalidArgument("unknown --coverage '" + coverage + "'");
  }
  return options;
}

int RunPipeline(const CliArgs& args) {
  // Flags first: a malformed value fails before any data is loaded.
  auto parsed_options = OptionsFromArgs(args);
  if (!parsed_options.ok()) return Fail(parsed_options.status().ToString());
  FairCapOptions options = std::move(parsed_options).ValueOrDie();
  const auto budget_mb = args.GetNonNegative("index-budget-mb", 0.0);
  if (!budget_mb.ok()) return Fail(budget_mb.status().ToString());

  StopWatch load_watch;
  auto loaded = LoadFromArgs(args);
  if (!loaded.ok()) {
    PrintUsage();
    return Fail(loaded.status().ToString());
  }
  // A file is parsed (ingest); every other dataset is sampled from its
  // generator (generate).
  obs::MetricsRegistry::Global()
      .GetGauge(loaded->name == "file" ? obs::kPhaseIngest
                                       : obs::kPhaseGenerate)
      .Set(load_watch.ElapsedSeconds());
  DataFrame df = std::move(loaded->df);
  const CausalDag dag = std::move(loaded->dag);

  // --- Protected pattern: dataset ground truth, overridable. -----------
  auto parsed_protected =
      ParseProtected(args, df, std::move(loaded->protected_pattern));
  if (!parsed_protected.ok()) return Fail(parsed_protected.status().ToString());
  Pattern protected_pattern = std::move(parsed_protected).ValueOrDie();

  // --- Index memory budget ----------------------------------------------
  if (*budget_mb > 0.0) {
    df.predicate_index().SetMemoryBudget(
        static_cast<size_t>(*budget_mb * 1024.0 * 1024.0));
  }

  // --- Run ---------------------------------------------------------------
  auto solver = FairCap::Create(&df, &dag, protected_pattern, options);
  if (!solver.ok()) return Fail(solver.status().ToString());
  auto result = solver->Run();
  if (!result.ok()) return Fail(result.status().ToString());

  std::cout << "data: " << loaded->name << " (" << df.num_rows()
            << " rows)\nprotected group: "
            << protected_pattern.ToString(df.schema()) << " ("
            << solver->protected_mask().Count() << " rows)\nconstraints: "
            << options.fairness.ToString() << "; "
            << options.coverage.ToString() << "\n\n";

  PrintMetricsTable(std::cout, "solution",
                    {{"FairCap", result->stats,
                      result->timings.total()}},
                    /*with_runtime=*/true);

  // Step-2 pool observability (stderr, --log-level=info). Inline runs
  // (--threads=1) report the grouping patterns run on the calling thread.
  if (result->scheduler.workers == 0) {
    FAIRCAP_LOG(Info) << "scheduler: inline (no workers), "
                      << result->scheduler.tasks
                      << " pattern tasks on the calling thread";
  } else {
    FAIRCAP_LOG(Info) << "scheduler: " << result->scheduler.workers
                      << " workers + caller, " << result->scheduler.tasks
                      << " pattern tasks claimed one at a time";
  }

  if (args.Has("natural-language")) {
    TemplateOptions nl;
    nl.utility_unit = args.Get("unit");
    std::cout << RulesetToNaturalLanguage(result->rules, df.schema(), nl);
  } else {
    for (const auto& rule : result->rules) {
      std::cout << "  - " << rule.ToString(df.schema()) << "\n";
    }
  }
  {
    const auto index_stats = df.predicate_index().GetStats();
    FAIRCAP_LOG(Info) << "index: " << index_stats.atom_masks
                      << " atom masks, " << index_stats.conjunction_masks
                      << " conjunction masks ("
                      << index_stats.conjunction_bytes << " bytes held, "
                      << index_stats.evictions << " evicted)";
  }
  {
    // Surface engine-cache pressure: a budget far below the working set
    // shows up here as evictions (every re-request rebuilds an engine).
    const auto engine_stats = solver->estimator().GetEngineStats();
    FAIRCAP_LOG(Info) << "engine cache: " << engine_stats.engines
                      << " engines, " << engine_stats.partitions
                      << " partitions (" << engine_stats.bytes
                      << " bytes held), " << engine_stats.hits << " hits / "
                      << engine_stats.misses << " misses, "
                      << engine_stats.evictions << " evicted";
  }
  return 0;
}

/// Structural + numeric comparison of two rulesets. Patterns, supports
/// and rule counts must match exactly; utilities are compared to
/// `rel_tol` (integer-outcome runs come out bit-identical; continuous
/// outcomes reassociate FP sums across delta merges, within 1e-9
/// relative). Returns true on match and reports the max relative
/// utility difference seen.
bool RulesetsMatch(const std::vector<PrescriptionRule>& a,
                   const std::vector<PrescriptionRule>& b,
                   const Schema& schema, double rel_tol,
                   double* max_rel_diff, std::string* mismatch) {
  *max_rel_diff = 0.0;
  if (a.size() != b.size()) {
    *mismatch = "rule count " + std::to_string(a.size()) + " vs " +
                std::to_string(b.size());
    return false;
  }
  const auto rel = [](double x, double y) {
    const double denom = std::max(std::abs(x), std::abs(y));
    return denom > 0.0 ? std::abs(x - y) / denom : 0.0;
  };
  for (size_t i = 0; i < a.size(); ++i) {
    const PrescriptionRule& ra = a[i];
    const PrescriptionRule& rb = b[i];
    if (ra.grouping.ToString(schema) != rb.grouping.ToString(schema) ||
        ra.intervention.ToString(schema) != rb.intervention.ToString(schema) ||
        ra.support != rb.support ||
        ra.support_protected != rb.support_protected) {
      *mismatch = "rule " + std::to_string(i) + " structure: [" +
                  ra.ToString(schema) + "] vs [" + rb.ToString(schema) + "]";
      return false;
    }
    for (const double d :
         {rel(ra.utility, rb.utility),
          rel(ra.utility_protected, rb.utility_protected),
          rel(ra.utility_nonprotected, rb.utility_nonprotected),
          rel(ra.benefit, rb.benefit)}) {
      *max_rel_diff = std::max(*max_rel_diff, d);
    }
  }
  if (*max_rel_diff > rel_tol) {
    *mismatch = "max relative utility difference " +
                FormatDouble(*max_rel_diff) + " exceeds " +
                FormatDouble(rel_tol);
    return false;
  }
  return true;
}

int RunAppend(const CliArgs& args) {
  // Flags first: a malformed value fails before any data is loaded.
  auto parsed_options = OptionsFromArgs(args);
  if (!parsed_options.ok()) return Fail(parsed_options.status().ToString());
  const FairCapOptions options = std::move(parsed_options).ValueOrDie();
  const bool use_files = args.Has("delta");
  const auto delta_fraction = args.GetDouble("delta-fraction", 0.0);
  if (!delta_fraction.ok()) return Fail(delta_fraction.status().ToString());
  const auto delta_batches = args.GetCount("delta-batches", 1);
  if (!delta_batches.ok()) return Fail(delta_batches.status().ToString());
  if (!use_files && *delta_fraction <= 0.0) {
    return Fail(
        "append needs --delta=FILE.csv[,FILE2] or --delta-fraction=F "
        "[--delta-batches=N]");
  }

  auto loaded = LoadFromArgs(args);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  const CausalDag dag_copy = loaded->dag;  // verify run borrows this one

  // Assemble base table + delta batches. File deltas are parsed against
  // the RESIDENT schema; generated datasets are split row-wise (the full
  // generation is the ground truth a cold run over everything would see).
  DataFrame base = std::move(loaded->df);
  std::vector<DataFrame> deltas;
  if (use_files) {
    for (const std::string& path : Split(args.Get("delta"), ',')) {
      if (std::string(Trim(path)).empty()) continue;
      DatasetRepository::AppendStats stats;
      auto delta = DatasetRepository::ParseDelta(
          base.schema(), std::string(Trim(path)), IngestOptions{}, &stats);
      if (!delta.ok()) return Fail(delta.status().ToString());
      FAIRCAP_LOG(Info) << "delta: " << path << " (" << stats.rows
                        << " rows, " << stats.bytes << " bytes, "
                        << FormatDouble(stats.seconds) << "s parse)";
      deltas.push_back(std::move(delta).ValueOrDie());
    }
    if (deltas.empty()) return Fail("--delta named no readable files");
  } else {
    const size_t total = base.num_rows();
    const size_t batch_rows =
        static_cast<size_t>(static_cast<double>(total) * *delta_fraction);
    if (batch_rows == 0 || batch_rows * *delta_batches >= total) {
      return Fail("--delta-fraction/--delta-batches leave no base rows");
    }
    const size_t base_rows = total - batch_rows * *delta_batches;
    std::vector<uint32_t> ids(base_rows);
    for (size_t i = 0; i < base_rows; ++i) ids[i] = static_cast<uint32_t>(i);
    DataFrame split_base = base.TakeRows(ids);
    for (size_t b = 0; b < *delta_batches; ++b) {
      ids.resize(batch_rows);
      for (size_t i = 0; i < batch_rows; ++i) {
        ids[i] = static_cast<uint32_t>(base_rows + b * batch_rows + i);
      }
      deltas.push_back(base.TakeRows(ids));
    }
    base = std::move(split_base);
  }

  auto parsed_protected =
      ParseProtected(args, base, std::move(loaded->protected_pattern));
  if (!parsed_protected.ok()) return Fail(parsed_protected.status().ToString());
  const Pattern protected_pattern = std::move(parsed_protected).ValueOrDie();

  auto session = IncrementalSession::Create(std::move(base), std::move(loaded->dag),
                                            protected_pattern, options);
  if (!session.ok()) return Fail(session.status().ToString());

  StopWatch watch;
  auto result = session->Run();
  if (!result.ok()) return Fail(result.status().ToString());
  const double base_seconds = watch.ElapsedSeconds();
  std::cout << "base run: " << session->df().num_rows() << " rows, "
            << result->rules.size() << " rules, "
            << FormatDouble(base_seconds) << "s\n";

  double append_seconds_total = 0.0;
  for (size_t b = 0; b < deltas.size(); ++b) {
    watch.Restart();
    const Status appended = session->Append(deltas[b]);
    if (!appended.ok()) return Fail(appended.ToString());
    {
      const obs::TraceSpan span("append_remine");
      result = session->Run();
    }
    if (!result.ok()) return Fail(result.status().ToString());
    const double seconds = watch.ElapsedSeconds();
    append_seconds_total += seconds;
    std::cout << "append " << (b + 1) << "/" << deltas.size() << ": +"
              << deltas[b].num_rows() << " rows -> "
              << session->df().num_rows() << " total, "
              << result->rules.size() << " rules, " << FormatDouble(seconds)
              << "s (" << FormatDouble(seconds / base_seconds)
              << "x base run)\n";
  }

  const auto cache = session->state().GetCacheStats();
  FAIRCAP_LOG(Info) << "incremental caches: " << cache.accum_entries
                    << " accum entries (" << cache.accum_bytes
                    << " bytes), " << cache.group_entries
                    << " group entries, group reuse "
                    << (cache.group_reuse_sound ? "sound" : "disabled");

  for (const auto& rule : result->rules) {
    std::cout << "  - " << rule.ToString(session->df().schema()) << "\n";
  }

  if (args.Has("verify")) {
    // Pinning oracle: a cold solver over the concatenated table with
    // fresh estimator/mining caches (the warm PredicateIndex is shared —
    // its masks are pinned equivalent by the index's own tests).
    FairCapOptions cold_options = options;
    cold_options.incremental_state = nullptr;
    watch.Restart();
    auto cold_solver = FairCap::Create(&session->df(), &dag_copy,
                                       protected_pattern, cold_options);
    if (!cold_solver.ok()) return Fail(cold_solver.status().ToString());
    auto cold = cold_solver->Run();
    if (!cold.ok()) return Fail(cold.status().ToString());
    const double cold_seconds = watch.ElapsedSeconds();
    double max_rel_diff = 0.0;
    std::string mismatch;
    const bool match =
        RulesetsMatch(result->rules, cold->rules, session->df().schema(),
                      /*rel_tol=*/1e-6, &max_rel_diff, &mismatch);
    std::cout << "verify: cold run " << FormatDouble(cold_seconds)
              << "s; incremental appends " << FormatDouble(append_seconds_total)
              << "s total ("
              << FormatDouble(append_seconds_total /
                              (cold_seconds * static_cast<double>(deltas.size())))
              << "x cold per batch); rulesets "
              << (match ? "MATCH" : "MISMATCH")
              << " (max rel diff " << FormatDouble(max_rel_diff) << ")\n";
    if (!match) return Fail("incremental/cold ruleset mismatch: " + mismatch);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string verb = "run";
  int first_flag = 1;
  if (argc > 1 && std::strncmp(argv[1], "--", 2) != 0) {
    verb = argv[1];
    first_flag = 2;
  }
  const CliArgs args = CliArgs::Parse(argc, argv, first_flag);

  // A mistyped flag fails instead of running with its default.
  std::set<std::string> known;
  if (!KnownFlags(verb, &known)) {
    PrintUsage();
    return Fail("unknown verb '" + verb + "'");
  }
  for (const auto& [flag, value] : args.values) {
    if (known.count(flag) == 0) {
      return Fail(Status::InvalidArgument("unknown flag --" + flag +
                                          " for verb '" + verb + "'")
                      .ToString());
    }
  }
  if (verb == "help" || args.Has("help")) {
    PrintUsage();
    return 0;
  }

  // Verbosity: FAIRCAP_LOG env first, explicit --log-level wins.
  InitLogLevelFromEnv();
  if (args.Has("log-level")) {
    LogLevel level;
    if (!ParseLogLevel(args.Get("log-level"), &level)) {
      return Fail("unknown --log-level '" + args.Get("log-level") +
                  "' (want debug|info|warn|error)");
    }
    SetLogLevel(level);
  }

  // Pin the SIMD kernel tier before any work runs (the first bitmap or
  // estimator call freezes throughput characteristics). Unlike the
  // FAIRCAP_SIMD env knob, which clamps with a warning, an explicit flag
  // asking for an unsupported tier is a hard error.
  if (args.Has("simd")) {
    simd::SimdLevel level;
    if (!simd::ParseSimdLevel(args.Get("simd"), &level)) {
      return Fail("unknown --simd value '" + args.Get("simd") +
                  "' (want scalar|avx2|avx512)");
    }
    const Status status = simd::SetSimdLevel(level);
    if (!status.ok()) return Fail(status.ToString());
  }

  // Span tracing: on for the whole verb when a destination is named
  // (--trace-json=FILE, or the FAIRCAP_TRACE=FILE env var), flushed once
  // after the verb finishes — by then the pipeline has destroyed (joined)
  // its scheduler, so no thread is still recording.
  std::string trace_path = args.Get("trace-json");
  if (trace_path.empty()) {
    // Read once at CLI startup on the main thread; no setenv in-process.
    const char* env = std::getenv("FAIRCAP_TRACE");  // NOLINT(concurrency-mt-unsafe)
    if (env != nullptr) trace_path = env;
  }
  if (trace_path == "true") {
    return Fail("--trace-json needs a file: --trace-json=FILE");
  }
  if (args.Get("metrics-json") == "true") {
    return Fail("--metrics-json needs a file: --metrics-json=FILE");
  }
  if (!trace_path.empty()) {
    // The calling thread claims ParallelFor indices next to the workers;
    // name its track so it reads "main" beside "worker-N".
    obs::SetThreadTraceName("main");
    obs::EnableTracing();
  }

  int rc;
  if (verb == "run") {
    rc = RunPipeline(args);
  } else if (verb == "gen") {
    rc = RunGen(args);
  } else if (verb == "ingest") {
    rc = RunIngest(args);
  } else if (verb == "append") {
    rc = RunAppend(args);
  } else {  // datasets
    rc = RunDatasets();
  }

  if (!trace_path.empty()) {
    obs::DisableTracing();
    const size_t events = obs::TraceEventCount();
    const Status written = obs::WriteChromeTraceFile(trace_path);
    if (!written.ok()) return Fail(written.ToString());
    FAIRCAP_LOG(Info) << "trace: " << trace_path << " (" << events
                      << " spans; load in ui.perfetto.dev)";
  }
  if (args.Has("metrics-json")) {
    const Status written = obs::WriteRunReportFile(args.Get("metrics-json"));
    if (!written.ok()) return Fail(written.ToString());
    FAIRCAP_LOG(Info) << "metrics: " << args.Get("metrics-json");
  }
  return rc;
}
