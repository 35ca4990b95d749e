// Result<T>: value-or-Status, the library's analogue of arrow::Result.

#ifndef FAIRCAP_UTIL_RESULT_H_
#define FAIRCAP_UTIL_RESULT_H_

#include <optional>
#include <utility>

#include "util/logging.h"
#include "util/status.h"

namespace faircap {

/// Holds either a value of type T or an error Status. Misuse (reading the
/// value of an error Result, or building one from an OK Status) aborts
/// through FAIRCAP_CHECK in every build type.
///
/// Usage:
///   Result<DataFrame> r = StreamCsv(path, schema);
///   if (!r.ok()) return r.status();
///   DataFrame df = std::move(r).ValueOrDie();
template <typename T>
class Result {
 public:
  /// Constructs from a value (implicit by design, mirroring arrow::Result).
  Result(T value) : value_(std::move(value)) {}  // NOLINT

  /// Constructs from an error status. Must not be OK.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    FAIRCAP_CHECK(!status_.ok());
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  /// Returns the contained value; the Result must be OK.
  const T& ValueOrDie() const& {
    FAIRCAP_CHECK(ok());
    return *value_;
  }
  T& ValueOrDie() & {
    FAIRCAP_CHECK(ok());
    return *value_;
  }
  T ValueOrDie() && {
    FAIRCAP_CHECK(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

  /// Returns the value if OK, otherwise `fallback`.
  T ValueOr(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates an error Result, otherwise assigns its value to `lhs`.
#define FAIRCAP_ASSIGN_OR_RETURN(lhs, expr)           \
  auto FAIRCAP_CONCAT_(_res_, __LINE__) = (expr);     \
  if (!FAIRCAP_CONCAT_(_res_, __LINE__).ok())         \
    return FAIRCAP_CONCAT_(_res_, __LINE__).status(); \
  lhs = std::move(FAIRCAP_CONCAT_(_res_, __LINE__)).ValueOrDie()

#define FAIRCAP_CONCAT_(a, b) FAIRCAP_CONCAT_IMPL_(a, b)
#define FAIRCAP_CONCAT_IMPL_(a, b) a##b

}  // namespace faircap

#endif  // FAIRCAP_UTIL_RESULT_H_
