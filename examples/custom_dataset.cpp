// Bring-your-own-data walkthrough: write a CSV, load it with schema
// inference, assign causal roles, declare a DAG, and mine a fair ruleset.
// This is the path an adopter with their own table would follow.
//
//   $ ./custom_dataset

#include <cstdio>
#include <fstream>
#include <iostream>

#include "core/faircap.h"
#include "ingest/chunked_csv_reader.h"
#include "util/random.h"

using namespace faircap;

namespace {

// Synthesize a small marketing dataset and save it as CSV, standing in for
// the user's own file.
std::string WriteSampleCsv() {
  const std::string path = "custom_dataset_sample.csv";
  std::ofstream out(path);
  out << "segment,region,channel,discount,spend\n";
  Rng rng(2024);
  for (int i = 0; i < 4000; ++i) {
    const bool premium = rng.NextBernoulli(0.3);
    const bool rural = rng.NextBernoulli(0.25);
    const bool email = rng.NextBernoulli(premium ? 0.6 : 0.4);
    const bool discount = rng.NextBernoulli(0.5);
    double spend = premium ? 90.0 : 50.0;
    if (email) spend += rural ? 4.0 : 12.0;  // channel works less in rural
    if (discount) spend += 8.0;
    spend += rng.NextGaussian(0.0, 5.0);
    out << (premium ? "premium" : "basic") << ','
        << (rural ? "rural" : "urban") << ',' << (email ? "email" : "ads")
        << ',' << (discount ? "yes" : "no") << ',' << spend << "\n";
  }
  return path;
}

}  // namespace

int main() {
  const std::string path = WriteSampleCsv();

  // 1. Load with schema inference (numeric columns auto-detected).
  auto df_result = StreamCsvInferSchema(path);
  if (!df_result.ok()) {
    std::cerr << df_result.status().ToString() << "\n";
    return 1;
  }
  DataFrame df = std::move(df_result).ValueOrDie();

  // 2. Assign causal roles: who we are (immutable), what we can act on
  //    (mutable), and what we want to move (outcome).
  for (const auto& [name, role] :
       std::vector<std::pair<std::string, AttrRole>>{
           {"segment", AttrRole::kImmutable},
           {"region", AttrRole::kImmutable},
           {"channel", AttrRole::kMutable},
           {"discount", AttrRole::kMutable},
           {"spend", AttrRole::kOutcome}}) {
    const Status st = df.SetRole(name, role);
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
  }

  // 3. Declare the causal DAG (or run PC — see dag_robustness example).
  auto dag_result = CausalDag::Create(
      {"segment", "region", "channel", "discount", "spend"},
      {{"segment", "channel"},
       {"segment", "spend"},
       {"region", "spend"},
       {"channel", "spend"},
       {"discount", "spend"}});
  const CausalDag dag = std::move(dag_result).ValueOrDie();

  // 4. Protected group: rural customers; require comparable gains.
  const size_t region = *df.schema().IndexOf("region");
  const Pattern protected_pattern(
      {Predicate(region, CompareOp::kEq, Value("rural"))});

  FairCapOptions options;
  options.apriori.min_support_fraction = 0.2;
  options.fairness = FairnessConstraint::GroupSP(5.0);
  options.coverage = CoverageConstraint::Group(0.6, 0.6);
  options.num_threads = 1;

  auto solver = FairCap::Create(&df, &dag, protected_pattern, options);
  if (!solver.ok()) {
    std::cerr << solver.status().ToString() << "\n";
    return 1;
  }
  auto result = solver->Run();
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return 1;
  }

  std::cout << "Loaded " << df.num_rows() << " rows from " << path << "\n";
  std::cout << "Selected " << result->rules.size()
            << " rules (coverage "
            << 100.0 * result->stats.coverage_fraction << "%, gap $"
            << result->stats.unfairness << "):\n";
  for (const auto& rule : result->rules) {
    std::cout << "  - " << rule.ToString(df.schema()) << "\n";
  }
  std::remove(path.c_str());
  return 0;
}
