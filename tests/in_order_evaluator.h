// Test helper: a lattice level evaluator that runs a per-pattern lambda
// over the level in canonical order.

#ifndef FAIRCAP_TESTS_IN_ORDER_EVALUATOR_H_
#define FAIRCAP_TESTS_IN_ORDER_EVALUATOR_H_

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "mining/lattice.h"

namespace faircap {

inline LevelEvaluator InOrder(
    std::function<std::optional<TreatmentEval>(const Pattern&)> each) {
  return [each = std::move(each)](const std::vector<Pattern>& level) {
    std::vector<std::optional<TreatmentEval>> results;
    results.reserve(level.size());
    for (const Pattern& pattern : level) results.push_back(each(pattern));
    return results;
  };
}

}  // namespace faircap

#endif  // FAIRCAP_TESTS_IN_ORDER_EVALUATOR_H_
