#include "workload.h"

#include <fstream>
#include <sstream>

#include "causal/dag_io.h"
#include "data/stackoverflow.h"
#include "dataframe/csv.h"
#include "digest.h"
#include "ingest/chunked_csv_reader.h"
#include "ingest/repository.h"
#include "ingest/synthetic.h"
#include "util/obs/trace.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace perfbench {

using faircap::AttrRole;
using faircap::DataFrame;
using faircap::Result;
using faircap::Status;

namespace {

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  out << content;
  if (!out) return Status::IOError("write failed for '" + path + "'");
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

DataFrame Slice(const DataFrame& df, size_t begin, size_t end) {
  std::vector<uint32_t> rows;
  rows.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) rows.push_back(static_cast<uint32_t>(i));
  return df.TakeRows(rows);
}

std::string RolesPath(const std::string& dir) { return dir + "/roles.txt"; }
std::string ReferencePath(const std::string& dir) {
  return dir + "/reference.digest";
}

}  // namespace

Result<WorkloadSpec> FindWorkload(const std::string& name) {
  // Options not set below keep the FairCapOptions defaults, which are
  // also the faircap_cli run defaults (min support 0.1, two intervention
  // predicates, 20 rules, min group 10, min subgroup arm 5).
  WorkloadSpec spec;
  spec.name = name;
  if (name == "so_fair") {
    // The paper's StackOverflow setting: group-SP fairness with
    // epsilon = $10,000 plus group coverage theta = 0.5.
    spec.dataset = "stackoverflow";
    spec.table_rows = 38000;
    spec.delta_rows = 380;
    spec.num_deltas = 1;
    spec.options.fairness = faircap::FairnessConstraint::GroupSP(10000.0);
    spec.options.coverage = faircap::CoverageConstraint::Group(0.5, 0.5);
    spec.options.num_threads = 2;
    spec.setup_repeats = 3;
  } else if (name == "synth_1m") {
    // The 1M-row baseline: real-valued outcome, no constraints.
    spec.dataset = "synthetic";
    spec.table_rows = 1000000;
    spec.delta_rows = 10000;
    spec.num_deltas = 1;
    spec.options.num_threads = 1;
  } else if (name == "synth_append") {
    // bench_append's configuration: integer outcome, group-SP fairness,
    // 1M rows of which the tail arrives as 1% delta CSVs.
    spec.dataset = "synthetic";
    spec.integer_outcome = true;
    spec.append = true;
    spec.table_rows = 900000;
    spec.delta_rows = 10000;
    spec.num_deltas = 10;
    spec.options.fairness = faircap::FairnessConstraint::GroupSP(1e9);
    spec.options.num_threads = 1;
  } else {
    return Status::NotFound("unknown workload '" + name +
                            "' (want so_fair, synth_1m or synth_append)");
  }
  return spec;
}

std::string TablePath(const std::string& dir) { return dir + "/table.csv"; }
std::string DagPath(const std::string& dir) { return dir + "/table.dag"; }
std::string DeltaPath(const std::string& dir, size_t index) {
  return dir + "/delta_" + std::to_string(index) + ".csv";
}
Result<Roles> ReadRoles(const std::string& dir) {
  FAIRCAP_ASSIGN_OR_RETURN(const std::string text, ReadFile(RolesPath(dir)));
  Roles roles;
  for (const std::string& line : faircap::Split(text, '\n')) {
    const size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "outcome") {
      roles.outcome = value;
    } else if (key == "mutable") {
      roles.mutable_attrs = faircap::Split(value, ',');
    } else if (key == "protected") {
      const size_t sep = value.find('=');
      if (sep == std::string::npos) break;
      roles.protected_attr = value.substr(0, sep);
      roles.protected_value = value.substr(sep + 1);
    }
  }
  if (roles.outcome.empty() || roles.mutable_attrs.empty() ||
      roles.protected_attr.empty()) {
    return Status::InvalidArgument("incomplete roles file in '" + dir + "'");
  }
  return roles;
}

Result<Digest> ReadReferenceDigest(const std::string& dir) {
  FAIRCAP_ASSIGN_OR_RETURN(const std::string text,
                           ReadFile(ReferencePath(dir)));
  return ParseDigest(text);
}

Status GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                      const std::string& dir) {
  const size_t total = spec.table_rows + spec.delta_rows * spec.num_deltas;
  DataFrame df;
  faircap::CausalDag dag;
  Roles roles;
  if (spec.dataset == "stackoverflow") {
    faircap::StackOverflowConfig config;
    config.num_rows = total;
    config.seed = seed;
    FAIRCAP_ASSIGN_OR_RETURN(faircap::StackOverflowData data,
                             faircap::MakeStackOverflow(config));
    df = std::move(data.df);
    dag = std::move(data.dag);
    roles.protected_attr = "GdpGroup";
    roles.protected_value = "low";
  } else {
    faircap::SyntheticConfig config;
    config.num_rows = total;
    config.seed = seed;
    config.integer_outcome = spec.integer_outcome;
    FAIRCAP_ASSIGN_OR_RETURN(faircap::SyntheticData data,
                             faircap::MakeSynthetic(config));
    df = std::move(data.df);
    dag = std::move(data.dag);
    roles.protected_attr = "Group";
    roles.protected_value = "protected";
  }
  const faircap::Schema& schema = df.schema();
  FAIRCAP_ASSIGN_OR_RETURN(const size_t outcome, schema.OutcomeIndex());
  roles.outcome = schema.attribute(outcome).name;
  for (const size_t i : schema.IndicesWithRole(AttrRole::kMutable)) {
    roles.mutable_attrs.push_back(schema.attribute(i).name);
  }

  FAIRCAP_RETURN_NOT_OK(
      faircap::WriteCsv(Slice(df, 0, spec.table_rows), TablePath(dir)));
  for (size_t k = 0; k < spec.num_deltas; ++k) {
    const size_t begin = spec.table_rows + k * spec.delta_rows;
    FAIRCAP_RETURN_NOT_OK(faircap::WriteCsv(
        Slice(df, begin, begin + spec.delta_rows), DeltaPath(dir, k)));
  }
  FAIRCAP_RETURN_NOT_OK(WriteFile(DagPath(dir), faircap::DagToText(dag)));
  FAIRCAP_RETURN_NOT_OK(WriteFile(
      RolesPath(dir), "outcome=" + roles.outcome + "\nmutable=" +
                          faircap::Join(roles.mutable_attrs, ",") +
                          "\nprotected=" + roles.protected_attr + "=" +
                          roles.protected_value + "\n"));
  if (spec.append) return Status::OK();

  // Reference ruleset of a cold op: the table loaded through the
  // repository's file loader (the faircap_cli run --data path), run once.
  faircap::CsvDatasetSpec file;
  file.csv_path = TablePath(dir);
  file.dag_path = DagPath(dir);
  file.outcome = roles.outcome;
  file.mutable_attrs = roles.mutable_attrs;
  file.protected_clauses = {{roles.protected_attr, roles.protected_value}};
  FAIRCAP_ASSIGN_OR_RETURN(faircap::Dataset loaded,
                           faircap::LoadCsvDataset(file));
  FAIRCAP_ASSIGN_OR_RETURN(
      const faircap::FairCap solver,
      faircap::FairCap::Create(&loaded.df, &loaded.dag,
                               loaded.protected_pattern, spec.options));
  FAIRCAP_ASSIGN_OR_RETURN(const faircap::FairCapResult result, solver.Run());
  return WriteFile(ReferencePath(dir),
                   SerializeDigest(MakeDigest(result.rules,
                                              loaded.df.schema())));
}

Result<LoadedTable> LoadTable(const std::string& csv_path,
                              const std::string& dag_path,
                              const Roles& roles) {
  LoadedTable table;
  faircap::StopWatch watch;
  faircap::Schema schema;
  {
    const faircap::obs::TraceSpan span("perfbench.infer_schema");
    FAIRCAP_ASSIGN_OR_RETURN(schema, faircap::InferCsvSchema(csv_path));
  }
  table.infer_seconds = watch.ElapsedSeconds();
  watch.Restart();
  {
    const faircap::obs::TraceSpan span("perfbench.stream_csv");
    FAIRCAP_ASSIGN_OR_RETURN(table.df, faircap::StreamCsv(csv_path, schema));
  }
  table.parse_seconds = watch.ElapsedSeconds();
  FAIRCAP_RETURN_NOT_OK(table.df.SetRole(roles.outcome, AttrRole::kOutcome));
  for (const std::string& name : roles.mutable_attrs) {
    FAIRCAP_RETURN_NOT_OK(table.df.SetRole(name, AttrRole::kMutable));
  }
  FAIRCAP_ASSIGN_OR_RETURN(table.dag, faircap::ReadDagFile(dag_path));
  FAIRCAP_ASSIGN_OR_RETURN(const size_t attr,
                           table.df.schema().IndexOf(roles.protected_attr));
  table.protected_pattern = faircap::Pattern({faircap::Predicate(
      attr, faircap::CompareOp::kEq, faircap::Value(roles.protected_value))});
  return table;
}

}  // namespace perfbench
