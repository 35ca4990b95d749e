// perfbench: the benchmark program behind perfbench/run.py.
//
//   perfbench gen --workload=W --seed=N --out=DIR
//       writes workload W's inputs for seed N into DIR (untimed; run once
//       per (workload, seed) and cached by run.py).
//   perfbench measure --workload=W --seed=N --inputs=DIR --seconds=S
//                     --trace=0|1 --artifacts=DIR --build-id=ID
//       runs W's ops from DIR for S measured seconds, prints every metric
//       with its unit and ends with the one-line JSON result. ID (a hash
//       of this binary) goes into the run record.

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "measure.h"
#include "workload.h"

namespace {

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      flags["!bad"] = arg;
      continue;
    }
    flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  return flags;
}

int Usage(const std::string& message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench gen --workload=W --seed=N --out=DIR\n"
               "       perfbench measure --workload=W --seed=N --inputs=DIR "
               "--seconds=S --trace=0|1 --artifacts=DIR --build-id=ID\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage("missing command");
  const std::string command = argv[1];
  std::map<std::string, std::string> flags = ParseFlags(argc, argv);
  if (flags.count("!bad") != 0) return Usage("bad flag " + flags["!bad"]);
  for (const char* key : {"workload", "seed"}) {
    if (flags.count(key) == 0) return Usage(std::string("missing --") + key);
  }
  auto spec = perfbench::FindWorkload(flags["workload"]);
  if (!spec.ok()) return Usage(spec.status().ToString());
  const uint64_t seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);

  if (command == "gen") {
    if (flags.count("out") == 0) return Usage("missing --out");
    const faircap::Status status =
        perfbench::GenerateInputs(*spec, seed, flags["out"]);
    if (!status.ok()) {
      std::cerr << "perfbench gen: " << status.ToString() << "\n";
      return 1;
    }
    return 0;
  }
  if (command == "measure") {
    for (const char* key :
         {"inputs", "seconds", "trace", "artifacts", "build-id"}) {
      if (flags.count(key) == 0) return Usage(std::string("missing --") + key);
    }
    perfbench::MeasureArgs args;
    args.spec = std::move(spec).ValueOrDie();
    args.seed = seed;
    args.inputs = flags["inputs"];
    args.artifacts = flags["artifacts"];
    args.build_id = flags["build-id"];
    args.seconds = std::strtod(flags["seconds"].c_str(), nullptr);
    args.trace = flags["trace"] == "1";
    return perfbench::Measure(args);
  }
  return Usage("unknown command '" + command + "'");
}
