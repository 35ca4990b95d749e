// Test-side pinning oracle for ConfounderPartition's cell interning: the
// original row-at-a-time interner, which builds each row's joint
// signature (code / quantile bin / null flag per confounder) as a string
// key and interns it in an unordered_map. Production keys cells by the
// integer mixed-radix stratum key, built column-at-a-time; the tests pin
// every per-row and per-cell array of the partition against this oracle.

#ifndef FAIRCAP_TESTS_REFERENCE_LEGACY_PARTITION_H_
#define FAIRCAP_TESTS_REFERENCE_LEGACY_PARTITION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "causal/estimator.h"
#include "dataframe/bitmap.h"
#include "dataframe/dataframe.h"

namespace faircap {

/// The cell arrays of a partition, as the legacy interner numbers them.
struct LegacyCells {
  std::vector<int32_t> cell_of_row;  ///< -1 where the outcome is null
  Bitmap outcome_valid;
  std::vector<int64_t> stratum_id;     ///< per cell; -1 if any null
  std::vector<uint32_t> onehot_begin;  ///< [cells + 1]
  std::vector<uint32_t> onehot_ids;
  std::vector<uint32_t> cells_by_stratum;  ///< ascending stratum id
};

/// Interns every row of `df` for `adjustment` the legacy way: same
/// radix bases, one-hot feature layout and quantile edges as
/// ConfounderPartition::Build. Stratum ids are the int64 mixed-radix
/// numbers; when one would overflow, every id is instead the cell's rank
/// in signature order (the production contract past int64).
LegacyCells LegacyInternCells(const DataFrame& df, size_t outcome_attr,
                              const std::vector<size_t>& adjustment,
                              const CateOptions& options);

}  // namespace faircap

#endif  // FAIRCAP_TESTS_REFERENCE_LEGACY_PARTITION_H_
