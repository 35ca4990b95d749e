#include "digest.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/string_util.h"

namespace perfbench {

using faircap::Result;
using faircap::Status;

namespace {

constexpr double kUtilityRelTol = 1e-9;

double RelDiff(double a, double b) {
  const double denom = std::max(std::abs(a), std::abs(b));
  return denom > 0.0 ? std::abs(a - b) / denom : 0.0;
}

std::string Exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Digest MakeDigest(const std::vector<faircap::PrescriptionRule>& rules,
                  const faircap::Schema& schema) {
  Digest digest;
  digest.reserve(rules.size());
  for (const faircap::PrescriptionRule& rule : rules) {
    digest.push_back({rule.grouping.ToString(schema),
                      rule.intervention.ToString(schema), rule.support,
                      rule.support_protected, rule.utility,
                      rule.utility_protected, rule.utility_nonprotected});
  }
  return digest;
}

std::string SerializeDigest(const Digest& digest) {
  std::string out;
  for (const RuleDigest& r : digest) {
    out += r.grouping + "\t" + r.intervention + "\t" +
           std::to_string(r.support) + "\t" +
           std::to_string(r.support_protected) + "\t" + Exact(r.utility) +
           "\t" + Exact(r.utility_protected) + "\t" +
           Exact(r.utility_nonprotected) + "\n";
  }
  return out;
}

Result<Digest> ParseDigest(const std::string& text) {
  Digest digest;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> f = faircap::Split(line, '\t');
    if (f.size() != 7) {
      return Status::InvalidArgument("malformed digest line '" + line + "'");
    }
    RuleDigest r;
    r.grouping = f[0];
    r.intervention = f[1];
    r.support = std::strtoull(f[2].c_str(), nullptr, 10);
    r.support_protected = std::strtoull(f[3].c_str(), nullptr, 10);
    r.utility = std::strtod(f[4].c_str(), nullptr);
    r.utility_protected = std::strtod(f[5].c_str(), nullptr);
    r.utility_nonprotected = std::strtod(f[6].c_str(), nullptr);
    digest.push_back(std::move(r));
  }
  return digest;
}

uint64_t DigestHash(const Digest& digest) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    h ^= 0xff;
    h *= 1099511628211ULL;
  };
  for (const RuleDigest& r : digest) {
    mix(r.grouping);
    mix(r.intervention);
    mix(std::to_string(r.support));
    mix(std::to_string(r.support_protected));
  }
  return h;
}

bool DigestsMatch(const Digest& got, const Digest& want, std::string* why) {
  if (got.size() != want.size()) {
    *why = "rule count " + std::to_string(got.size()) + " vs " +
           std::to_string(want.size());
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const RuleDigest& a = got[i];
    const RuleDigest& b = want[i];
    if (a.grouping != b.grouping || a.intervention != b.intervention ||
        a.support != b.support || a.support_protected != b.support_protected) {
      *why = "rule " + std::to_string(i) + ": [" + a.grouping + " => " +
             a.intervention + ", support " + std::to_string(a.support) +
             "] vs [" + b.grouping + " => " + b.intervention + ", support " +
             std::to_string(b.support) + "]";
      return false;
    }
    const double d = std::max({RelDiff(a.utility, b.utility),
                               RelDiff(a.utility_protected, b.utility_protected),
                               RelDiff(a.utility_nonprotected,
                                       b.utility_nonprotected)});
    if (d > kUtilityRelTol) {
      *why = "rule " + std::to_string(i) + ": utilities differ by " +
             Exact(d) + " relative";
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
