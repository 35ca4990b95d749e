#include "reference/legacy_partition.h"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "causal/cate_stats_engine.h"

namespace faircap {

LegacyCells LegacyInternCells(const DataFrame& df, size_t outcome_attr,
                              const std::vector<size_t>& adjustment,
                              const CateOptions& options) {
  // Per-confounder layout: radix base, one-hot feature offset (the
  // reference enumeration: categorical levels 1..k-1, numeric one
  // column) and quantile edges.
  struct Layout {
    size_t attr;
    bool categorical;
    int64_t base;
    uint32_t feature_base;
    std::vector<double> edges;
  };
  std::vector<Layout> confs;
  confs.reserve(adjustment.size());
  uint32_t features = 0;
  for (size_t attr : adjustment) {
    const Column& col = df.column(attr);
    Layout info{attr, col.type() == AttrType::kCategorical, 0, features, {}};
    if (info.categorical) {
      features += static_cast<uint32_t>(
          col.num_categories() > 0 ? col.num_categories() - 1 : 0);
      info.base = static_cast<int64_t>(col.num_categories() + 1);
    } else {
      features += 1;
      info.edges = QuantileBinEdges(
          col, std::max<size_t>(1, options.numeric_confounder_bins));
      info.base = static_cast<int64_t>(info.edges.size() + 2);
    }
    confs.push_back(std::move(info));
  }

  const size_t n = df.num_rows();
  const Column& outcome = df.column(outcome_attr);
  LegacyCells out;
  out.cell_of_row.assign(n, -1);
  out.outcome_valid = Bitmap(n);
  out.onehot_begin.push_back(0);
  std::unordered_map<std::string, int32_t> cell_ids;
  std::vector<std::vector<int32_t>> signatures;  // per cell
  // The original fold was unchecked; the ids are only computed when the
  // product of the bases fits in int64.
  bool ids_overflow = false;
  int64_t radix_product = 1;
  for (const Layout& info : confs) {
    ids_overflow |=
        __builtin_mul_overflow(radix_product, info.base, &radix_product);
  }
  std::vector<int32_t> sig(confs.size());
  std::string key;
  for (size_t r = 0; r < n; ++r) {
    if (outcome.IsNull(r)) continue;
    out.outcome_valid.Set(r);
    for (size_t a = 0; a < confs.size(); ++a) {
      const Layout& info = confs[a];
      const Column& col = df.column(info.attr);
      if (col.IsNull(r)) {
        sig[a] = -1;
      } else if (info.categorical) {
        sig[a] = col.code(r);
      } else {
        sig[a] = static_cast<int32_t>(
            std::upper_bound(info.edges.begin(), info.edges.end(),
                             col.numeric(r)) -
            info.edges.begin());
      }
    }
    key.assign(reinterpret_cast<const char*>(sig.data()),
               sig.size() * sizeof(int32_t));
    const auto [it, inserted] = cell_ids.emplace(
        key, static_cast<int32_t>(out.stratum_id.size()));
    if (inserted) {
      int64_t id = 0;
      bool any_null = false;
      for (size_t a = 0; a < confs.size(); ++a) {
        if (sig[a] < 0) {
          any_null = true;
          continue;
        }
        if (!ids_overflow) id = id * confs[a].base + sig[a];
        if (confs[a].categorical && sig[a] >= 1) {
          out.onehot_ids.push_back(confs[a].feature_base +
                                   static_cast<uint32_t>(sig[a] - 1));
        }
      }
      out.onehot_begin.push_back(static_cast<uint32_t>(out.onehot_ids.size()));
      out.stratum_id.push_back(any_null ? -1 : id);
      signatures.push_back(sig);
    }
    out.cell_of_row[r] = it->second;
  }

  for (uint32_t c = 0; c < out.stratum_id.size(); ++c) {
    if (out.stratum_id[c] >= 0) out.cells_by_stratum.push_back(c);
  }
  if (!ids_overflow) {
    std::sort(out.cells_by_stratum.begin(), out.cells_by_stratum.end(),
              [&](uint32_t a, uint32_t b) {
                return out.stratum_id[a] < out.stratum_id[b];
              });
    return out;
  }
  // Past int64 the ids are the ranks of the signatures, which order as
  // the mixed-radix ids would.
  std::sort(out.cells_by_stratum.begin(), out.cells_by_stratum.end(),
            [&](uint32_t a, uint32_t b) {
              return signatures[a] < signatures[b];
            });
  for (size_t rank = 0; rank < out.cells_by_stratum.size(); ++rank) {
    out.stratum_id[out.cells_by_stratum[rank]] = static_cast<int64_t>(rank);
  }
  return out;
}

}  // namespace faircap
