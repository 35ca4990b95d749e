// PrescriptionRule: (grouping pattern, intervention pattern) plus its
// estimated utilities (Definitions 4.3 / 4.4). Utilities are CATE values:
// overall on Coverage(P_grp), and separately on the protected and
// non-protected parts of the coverage.

#ifndef FAIRCAP_CORE_RULE_H_
#define FAIRCAP_CORE_RULE_H_

#include <string>

#include "dataframe/bitmap.h"
#include "mining/pattern.h"

namespace faircap {

/// One prescription rule with cached coverage and utilities. The rule
/// holds one bitmap, its coverage; the protected part of the coverage is
/// kept only as a count, and a reader that needs its rows intersects
/// `coverage` with the protected mask.
struct PrescriptionRule {
  Pattern grouping;      ///< over immutable attributes (P_grp)
  Pattern intervention;  ///< over mutable attributes (P_int)

  Bitmap coverage;  ///< Coverage(P_grp) over the full DataFrame
  size_t support = 0;            ///< |coverage|
  size_t support_protected = 0;  ///< |coverage ∩ protected group|

  /// CATE(P_int, O | P_grp) — Definition 4.4 (1). Zero if coverage empty.
  double utility = 0.0;
  /// CATE on the protected part — Definition 4.4 (2). Zero if empty.
  double utility_protected = 0.0;
  /// CATE on the non-protected part — Definition 4.4 (3). Zero if empty.
  double utility_nonprotected = 0.0;

  /// Fairness-aware selection score (Section 5.2); filled during mining.
  double benefit = 0.0;

  /// Standard error of the overall CATE (0 when unavailable).
  double std_error = 0.0;

  /// False when the respective subgroup is non-empty but its CATE could
  /// not be estimated (no overlap). Definition 4.4 sets the utility of an
  /// *empty* subgroup to 0; an inestimable non-empty subgroup instead
  /// makes the rule unusable under an active fairness constraint because
  /// its fairness cannot be certified.
  bool utility_protected_estimable = true;
  bool utility_nonprotected_estimable = true;

  /// True when both subgroup utilities are usable for fairness reasoning.
  bool GroupUtilitiesEstimable() const {
    return utility_protected_estimable && utility_nonprotected_estimable;
  }

  /// |utility_nonprotected - utility_protected| — per-rule SP gap.
  double FairnessGap() const;

  /// Renders "IF <grouping> THEN <intervention> (utility=..., p=..., np=...)".
  std::string ToString(const Schema& schema) const;
};

}  // namespace faircap

#endif  // FAIRCAP_CORE_RULE_H_
