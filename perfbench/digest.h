// Ruleset digests: what every op's output is checked against. A digest
// records each selected rule's grouping, intervention, support and
// protected support (compared exactly) and its three utilities (compared
// to 1e-9 relative).

#ifndef PERFBENCH_DIGEST_H_
#define PERFBENCH_DIGEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/rule.h"
#include "dataframe/schema.h"
#include "util/result.h"

namespace perfbench {

struct RuleDigest {
  std::string grouping;
  std::string intervention;
  size_t support = 0;
  size_t support_protected = 0;
  double utility = 0.0;
  double utility_protected = 0.0;
  double utility_nonprotected = 0.0;
};

using Digest = std::vector<RuleDigest>;

Digest MakeDigest(const std::vector<faircap::PrescriptionRule>& rules,
                  const faircap::Schema& schema);

/// One rule per line, tab-separated, utilities in round-trip precision.
std::string SerializeDigest(const Digest& digest);
faircap::Result<Digest> ParseDigest(const std::string& text);

/// FNV-1a over the exactly compared fields (for the run record).
uint64_t DigestHash(const Digest& digest);

/// True when both digests agree; otherwise `why` says where they differ.
bool DigestsMatch(const Digest& got, const Digest& want, std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_DIGEST_H_
