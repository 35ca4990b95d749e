// Internal: portable kernel bodies shared by the per-ISA translation
// units. The scalar tier uses these as THE implementation; the AVX2 and
// AVX-512 tiers use them for word tails and for the two accumulation
// loops (over the table's words and over a compacted group, each for one
// to kMaxCateBatch treatments in one pass), which share one per-row add
// (AddRow).
//
// Everything here sits in an unnamed namespace, so each TU that includes
// this header gets its own internal-linkage copy, compiled under that
// TU's -march. With external linkage the linker would merge the inline
// copies across TUs and could hand the scalar tier one compiled for
// AVX-512.
//
// The accumulation core is the determinism anchor of the whole layer. It
// performs every floating-point add in ascending row order with the same
// associations as the original CateStatsEngine scalar loop, at every tier
// — a vectorized scatter-add (which would race with itself and
// reassociate) is never used. On integer-valued outcomes every partial
// sum below 2^53 is an exact integer in double, so those sums match
// bit for bit under any split into delta passes as well.

#ifndef FAIRCAP_UTIL_SIMD_SIMD_KERNELS_CORE_H_
#define FAIRCAP_UTIL_SIMD_SIMD_KERNELS_CORE_H_

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/logging.h"
#include "util/simd/simd.h"

namespace faircap {
namespace simd {
namespace core {
namespace {

inline size_t ScalarPopcount(const uint64_t* words, size_t num_words) {
  size_t n = 0;
  for (size_t i = 0; i < num_words; ++i) {
    n += static_cast<size_t>(__builtin_popcountll(words[i]));
  }
  return n;
}

inline size_t ScalarAndCount(const uint64_t* a, const uint64_t* b,
                             size_t num_words) {
  size_t n = 0;
  for (size_t i = 0; i < num_words; ++i) {
    n += static_cast<size_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return n;
}

inline size_t ScalarAndNotCount(const uint64_t* a, const uint64_t* b,
                                size_t num_words) {
  size_t n = 0;
  for (size_t i = 0; i < num_words; ++i) {
    n += static_cast<size_t>(__builtin_popcountll(a[i] & ~b[i]));
  }
  return n;
}

inline void ScalarAndInplace(uint64_t* a, const uint64_t* b,
                             size_t num_words) {
  for (size_t i = 0; i < num_words; ++i) a[i] &= b[i];
}

inline void ScalarOrInplace(uint64_t* a, const uint64_t* b,
                            size_t num_words) {
  for (size_t i = 0; i < num_words; ++i) a[i] |= b[i];
}

inline void ScalarAndNotInplace(uint64_t* a, const uint64_t* b,
                                size_t num_words) {
  for (size_t i = 0; i < num_words; ++i) a[i] &= ~b[i];
}

// One mask word (up to 64 rows) of the categorical compare scans.
inline uint64_t CodesEqWord(const int32_t* codes, size_t rows, int32_t code) {
  uint64_t word = 0;
  for (size_t i = 0; i < rows; ++i) {
    word |= static_cast<uint64_t>(codes[i] == code) << i;
  }
  return word;
}

inline uint64_t CodesNeWord(const int32_t* codes, size_t rows,
                            int32_t null_code, int32_t code) {
  uint64_t word = 0;
  for (size_t i = 0; i < rows; ++i) {
    word |= static_cast<uint64_t>(codes[i] != null_code && codes[i] != code)
            << i;
  }
  return word;
}

inline void ScalarMaskCodesEq(const int32_t* codes, size_t n, int32_t code,
                              uint64_t* out) {
  for (size_t begin = 0; begin < n; begin += 64) {
    const size_t rows = n - begin < 64 ? n - begin : 64;
    out[begin / 64] = CodesEqWord(codes + begin, rows, code);
  }
}

inline void ScalarMaskCodesNe(const int32_t* codes, size_t n,
                              int32_t null_code, int32_t code, uint64_t* out) {
  for (size_t begin = 0; begin < n; begin += 64) {
    const size_t rows = n - begin < 64 ? n - begin : 64;
    out[begin / 64] = CodesNeWord(codes + begin, rows, null_code, code);
  }
}

// NaN never matches (null convention), not even under kNe where plain
// IEEE != would admit it.
inline bool NumericMatch(double v, Cmp op, double rhs) {
  if (std::isnan(v)) return false;
  switch (op) {
    case Cmp::kEq: return v == rhs;
    case Cmp::kNe: return v != rhs;
    case Cmp::kLt: return v < rhs;
    case Cmp::kLe: return v <= rhs;
    case Cmp::kGt: return v > rhs;
    case Cmp::kGe: return v >= rhs;
  }
  return false;
}

inline uint64_t NumericCmpWord(const double* values, size_t rows, Cmp op,
                               double rhs) {
  uint64_t word = 0;
  for (size_t i = 0; i < rows; ++i) {
    word |= static_cast<uint64_t>(NumericMatch(values[i], op, rhs)) << i;
  }
  return word;
}

inline void ScalarMaskNumericCmp(const double* values, size_t n, Cmp op,
                                 double rhs, uint64_t* out) {
  for (size_t begin = 0; begin < n; begin += 64) {
    const size_t rows = n - begin < 64 ? n - begin : 64;
    out[begin / 64] = NumericCmpWord(values + begin, rows, op, rhs);
  }
}

// ---------------------------------------------------------------------
// Accumulation core: the row loops serve every tier.

/// Per-pass row counters, taken from per-word popcounts and flushed into
/// the sinks once at the end (integer adds commute).
struct PassCounts {
  size_t rows = 0;
  size_t treated = 0;
  size_t prot_rows = 0;
  size_t prot_treated = 0;
};

inline void FlushCounts(const CateSink& overall, const CateSink& prot,
                        const CateSink& nonprot, const PassCounts& counts,
                        bool split) {
  *overall.rows += counts.rows;
  *overall.n_treated += counts.treated;
  *overall.n_control += counts.rows - counts.treated;
  if (!split) return;
  const size_t prot_control = counts.prot_rows - counts.prot_treated;
  *prot.rows += counts.prot_rows;
  *prot.n_treated += counts.prot_treated;
  *prot.n_control += prot_control;
  *nonprot.rows += counts.rows - counts.prot_rows;
  *nonprot.n_treated += counts.treated - counts.prot_treated;
  *nonprot.n_control += (counts.rows - counts.treated) - prot_control;
}

/// Adds the popcounts of one word's rows (`bits`) to the pass counters.
template <bool kSplit>
inline void CountWord(uint64_t bits, uint64_t tword, uint64_t pword,
                      PassCounts* counts) {
  counts->rows += static_cast<size_t>(__builtin_popcountll(bits));
  counts->treated += static_cast<size_t>(__builtin_popcountll(bits & tword));
  if (kSplit) {
    const uint64_t pbits = bits & pword;
    counts->prot_rows += static_cast<size_t>(__builtin_popcountll(pbits));
    counts->prot_treated +=
        static_cast<size_t>(__builtin_popcountll(pbits & tword));
  }
}

/// Adds one row's outcome `y` (and, with kMoments, its numeric confounder
/// values zcols[j][z_at]) to slot `idx` of the overall sink and, with
/// kSplit, of its subgroup sink `part`.
template <bool kSplit, bool kMoments>
inline void AddRow(const CateSink& all, const CateSink& part, size_t idx,
                   double y, const double* const* zcols, size_t m,
                   size_t z_at) {
  const double yy = y * y;
  CateSlot& a = all.slots[idx];
  ++a.n;
  a.sy += y;
  a.syy += yy;
  if (kSplit) {
    CateSlot& p = part.slots[idx];
    ++p.n;
    p.sy += y;
    p.syy += yy;
  }
  if (kMoments) {
    const size_t zbase = idx * m;
    const size_t zzbase = idx * (m * (m + 1) / 2);
    for (size_t j = 0, t = 0; j < m; ++j) {
      const double zj = zcols[j][z_at];
      const double zy = zj * y;
      all.zsum[zbase + j] += zj;
      all.zysum[zbase + j] += zy;
      if (kSplit) {
        part.zsum[zbase + j] += zj;
        part.zysum[zbase + j] += zy;
      }
      for (size_t k = j; k < m; ++k, ++t) {
        const double zz = zj * zcols[k][z_at];
        all.zzsum[zzbase + t] += zz;
        if (kSplit) part.zzsum[zzbase + t] += zz;
      }
    }
  }
}

/// Accumulates the rows of words [args.row_begin / 64, args.word_end),
/// from row args.row_begin on, for the pass's kB treatments. A word
/// contributes the rows of group & valid; the row loop visits them in
/// ascending order and carries no per-row branch: a row's cell id,
/// outcome and protected bit are read once, and each treatment adds it
/// to slot 2*cell + its own treated bit of its own sinks, the protected
/// bit picking the subgroup sink. Every per-slot float add happens in
/// ascending row order, so each treatment's sums equal the legacy scalar
/// loop's bit for bit at every tier and batch width.
///
/// Each instantiation is its own 64-byte-aligned function: inlined into
/// the dispatcher, the one-treatment row loop read ~7% slower in a
/// microbenchmark on a 4-core AVX-512 host (1M rows, 75% dense group,
/// 30 cells) with identical instructions, from where the larger
/// function placed it.
template <size_t kB, bool kSplit, bool kMoments>
__attribute__((noinline, aligned(64))) void AccumulateWords(
    const CateAccumArgs& args) {
  PassCounts counts[kB];
  const uint64_t* tw[kB];
  // Subgroup sinks by protected bit: [0] non-protected, [1] protected.
  const CateSink* sub[kB][2];
  for (size_t t = 0; t < kB; ++t) {
    const CateTreatmentSinks& sinks = args.treatments[t];
    tw[t] = sinks.treated_words;
    sub[t][0] = &sinks.nonprot;
    sub[t][1] = &sinks.prot;
  }
  const uint64_t* gw = args.group_words;
  const uint64_t* vw = args.valid_words;
  const uint64_t* pw = args.protected_words;
  const int32_t* cell_of_row = args.cell_of_row;
  const double* outcome = args.outcome;
  // Only the first word holds rows below row_begin.
  uint64_t first = ~uint64_t{0} << (args.row_begin % 64);
  for (size_t w = args.row_begin / 64; w < args.word_end; ++w) {
    uint64_t bits = gw[w] & vw[w] & first;
    first = ~uint64_t{0};
    if (bits == 0) continue;
    const uint64_t pword = kSplit ? pw[w] : 0;
    uint64_t tword[kB];
    for (size_t t = 0; t < kB; ++t) {
      tword[t] = tw[t][w];
      CountWord<kSplit>(bits, tword[t], pword, &counts[t]);
    }
    const size_t base = w * 64;
    do {
      const unsigned b = static_cast<unsigned>(__builtin_ctzll(bits));
      bits &= bits - 1;
      const size_t r = base + b;
      const size_t cell2 = static_cast<size_t>(cell_of_row[r]) * 2;
      const double y = outcome[r];
      const size_t s = (pword >> b) & 1;
      for (size_t t = 0; t < kB; ++t) {
        AddRow<kSplit, kMoments>(args.treatments[t].overall, *sub[t][s],
                                 cell2 + ((tword[t] >> b) & 1), y, args.zcols,
                                 args.num_numeric, r);
      }
    } while (bits != 0);
  }
  for (size_t t = 0; t < kB; ++t) {
    const CateTreatmentSinks& sinks = args.treatments[t];
    FlushCounts(sinks.overall, sinks.prot, sinks.nonprot, counts[t], kSplit);
  }
}

/// The compact counterpart of AccumulateWords: the same per-row adds in
/// the same ascending row order for the pass's kB treatments, with the
/// row's dense cell id, outcome and numeric values read sequentially from
/// the gathered arrays, once for all treatments. Compiled as its own
/// 64-byte-aligned function per instantiation, like AccumulateWords.
template <size_t kB, bool kSplit, bool kMoments>
__attribute__((noinline, aligned(64))) void AccumulateCompactWords(
    const CateCompactArgs& args) {
  PassCounts counts[kB];
  const uint64_t* tw[kB];
  // Subgroup sinks by protected bit: [0] non-protected, [1] protected.
  const CateSink* sub[kB][2];
  for (size_t t = 0; t < kB; ++t) {
    const CateTreatmentSinks& sinks = args.treatments[t];
    tw[t] = sinks.treated_words;
    sub[t][0] = &sinks.nonprot;
    sub[t][1] = &sinks.prot;
  }
  const uint32_t* cell = args.cell;
  const double* outcome = args.outcome;
  size_t i = 0;  // position of the next gathered row
  for (size_t w = 0; w < args.num_words; ++w) {
    uint64_t bits = args.word_bits[w];
    const size_t at = args.word_index[w];
    const uint64_t pword = kSplit ? args.word_prot[w] : 0;
    uint64_t tword[kB];
    for (size_t t = 0; t < kB; ++t) {
      tword[t] = tw[t][at];
      CountWord<kSplit>(bits, tword[t], pword, &counts[t]);
    }
    do {
      const unsigned b = static_cast<unsigned>(__builtin_ctzll(bits));
      bits &= bits - 1;
      const size_t cell2 = static_cast<size_t>(cell[i]) * 2;
      const double y = outcome[i];
      const size_t s = (pword >> b) & 1;
      for (size_t t = 0; t < kB; ++t) {
        AddRow<kSplit, kMoments>(args.treatments[t].overall, *sub[t][s],
                                 cell2 + ((tword[t] >> b) & 1), y, args.zcols,
                                 args.num_numeric, i);
      }
      ++i;
    } while (bits != 0);
  }
  for (size_t t = 0; t < kB; ++t) {
    const CateTreatmentSinks& sinks = args.treatments[t];
    FlushCounts(sinks.overall, sinks.prot, sinks.nonprot, counts[t], kSplit);
  }
}

/// The table pass's row loop, named for RunPass.
struct TablePass {
  template <size_t kB, bool kSplit, bool kMoments>
  static void Run(const CateAccumArgs& args) {
    AccumulateWords<kB, kSplit, kMoments>(args);
  }
};

/// The compact pass's row loop, named for RunPass.
struct CompactPass {
  template <size_t kB, bool kSplit, bool kMoments>
  static void Run(const CateCompactArgs& args) {
    AccumulateCompactWords<kB, kSplit, kMoments>(args);
  }
};

template <typename Pass, size_t kB, typename Args>
inline void RunPassWidth(const Args& args, bool split) {
  if (split) {
    if (args.moments) {
      Pass::template Run<kB, true, true>(args);
    } else {
      Pass::template Run<kB, true, false>(args);
    }
  } else {
    if (args.moments) {
      Pass::template Run<kB, false, true>(args);
    } else {
      Pass::template Run<kB, false, false>(args);
    }
  }
}

/// Runs the (batch width, split, moments) instantiation of Pass's row
/// loop.
template <typename Pass, typename Args>
inline void RunPass(const Args& args, bool split) {
  static_assert(kMaxCateBatch == 4, "one case per batch width");
  FAIRCAP_CHECK(args.num_treatments >= 1 &&
                args.num_treatments <= kMaxCateBatch);
  switch (args.num_treatments) {
    case 1: return RunPassWidth<Pass, 1>(args, split);
    case 2: return RunPassWidth<Pass, 2>(args, split);
    case 3: return RunPassWidth<Pass, 3>(args, split);
    default: return RunPassWidth<Pass, 4>(args, split);
  }
}

/// The cate_accumulate kernel.
inline void CateAccumulate(const CateAccumArgs& args) {
  RunPass<TablePass>(args, args.protected_words != nullptr);
}

/// The cate_accumulate_compact kernel.
inline void CateAccumulateCompact(const CateCompactArgs& args) {
  RunPass<CompactPass>(args, args.word_prot != nullptr);
}

}  // namespace
}  // namespace core
}  // namespace simd
}  // namespace faircap

#endif  // FAIRCAP_UTIL_SIMD_SIMD_KERNELS_CORE_H_
