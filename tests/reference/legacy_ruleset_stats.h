// Test-side pinning oracle for ComputeRulesetStats: the original
// implementation, which keeps three population-sized per-row arrays
// (best overall, best non-protected, worst protected utility) and a
// covered bitmap, applies every selected rule over the whole table, then
// sums the covered rows in ascending order. Production walks the table
// one block of rows at a time with the same per-row update order and the
// same summation order; the tests compare every field bitwise.

#ifndef FAIRCAP_TESTS_REFERENCE_LEGACY_RULESET_STATS_H_
#define FAIRCAP_TESTS_REFERENCE_LEGACY_RULESET_STATS_H_

#include <cstddef>
#include <vector>

#include "core/rule.h"
#include "core/ruleset.h"
#include "dataframe/bitmap.h"

namespace faircap {

/// Definition 4.5 statistics of `candidates[selected]`, computed with
/// table-sized per-row arrays.
RulesetStats LegacyRulesetStats(const std::vector<PrescriptionRule>& candidates,
                                const std::vector<size_t>& selected,
                                const Bitmap& protected_mask);

}  // namespace faircap

#endif  // FAIRCAP_TESTS_REFERENCE_LEGACY_RULESET_STATS_H_
