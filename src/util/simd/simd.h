// Runtime-dispatched SIMD kernel layer for the two hot inner loops of the
// pipeline: bitmap word algebra (AND/ANDNOT/popcount and the word-batched
// predicate compare scans) and the CateStatsEngine per-(cell, arm)
// sufficient-statistics accumulation.
//
// Kernels come in up to three ISA tiers — scalar, AVX2, AVX-512 — compiled
// in separate translation units with per-file -march flags, selected ONCE
// at startup by CPUID and overridable with the FAIRCAP_SIMD environment
// knob (scalar|avx2|avx512) or SetSimdLevel (the CLI's --simd= flag). Every
// tier is pinned to produce identical results: counts and mask words are
// exact integers, and the accumulation kernel performs its float adds in
// the same ascending-row association order as the scalar loop, so the
// repo's bit-for-bit determinism contracts (thread counts, reference-
// oracle pinning) hold at every ISA level. Integer-valued outcomes
// need no separate path: every partial sum of integers below 2^53 is
// exact in double, whatever the order.

#ifndef FAIRCAP_UTIL_SIMD_SIMD_H_
#define FAIRCAP_UTIL_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace faircap {
namespace simd {

/// ISA tiers, ascending. Dispatch never selects a tier the host CPU (or
/// the build) does not support; kAvx512 additionally requires the
/// AVX-512VPOPCNTDQ extension its popcount kernels are compiled against.
enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// "scalar" / "avx2" / "avx512".
const char* SimdLevelName(SimdLevel level);

/// Parses a FAIRCAP_SIMD / --simd= spelling. Returns false on an unknown
/// name (level is untouched).
bool ParseSimdLevel(const std::string& name, SimdLevel* level);

/// Highest tier both compiled into this binary and supported by the host
/// CPU (CPUID, probed once).
SimdLevel MaxSupportedSimdLevel();

/// All usable tiers, ascending; always contains kScalar. Test sweeps and
/// the per-ISA benches iterate this.
std::vector<SimdLevel> SupportedSimdLevels();

/// The tier kernels currently dispatch to. Resolved on first use: the
/// FAIRCAP_SIMD environment knob if set (clamped to the supported maximum
/// with a one-time stderr warning if it asks for more than the host has),
/// otherwise MaxSupportedSimdLevel().
SimdLevel ActiveSimdLevel();

/// Pins dispatch to `level` for the rest of the process (or until the
/// next call). Fails with InvalidArgument if the tier is not supported on
/// this host/build. Thread-safe, but callers should pin before spawning
/// workers: a mid-flight switch is benign for results (every tier is
/// bit-identical) yet makes throughput numbers meaningless.
Status SetSimdLevel(SimdLevel level);

/// RAII level pin for tests: sets `level`, restores the previous level on
/// destruction. A level the host or build does not support aborts in
/// every build type.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level);
  ~ScopedSimdLevel();
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  SimdLevel previous_;
};

/// Comparison op for the numeric compare-scan kernel (mirrors the
/// dataframe layer's CompareOp, which util cannot include).
enum class Cmp : int { kEq = 0, kNe = 1, kLt = 2, kLe = 3, kGt = 4, kGe = 5 };

/// One (cell, arm) slot's row count, outcome sum and sum of squares. A
/// row updates all three, so they sit side by side: one row touches one
/// slot record per sink instead of three separate arrays.
struct CateSlot {
  double sy = 0.0;
  double syy = 0.0;
  uint32_t n = 0;
};

/// One subgroup accumulator's raw statistic slots (the kernel-facing view
/// of CateStatsEngine::Accum). All arrays are cell-major with two arms
/// (idx = 2*cell + arm); the z* arrays are null unless moments are
/// accumulated.
struct CateSink {
  size_t* rows = nullptr;       ///< subgroup rows with non-null outcome
  size_t* n_treated = nullptr;
  size_t* n_control = nullptr;
  CateSlot* slots = nullptr;    ///< [2C]
  double* zsum = nullptr;       ///< [2C * m]
  double* zysum = nullptr;      ///< [2C * m]
  double* zzsum = nullptr;      ///< [2C * m(m+1)/2], upper-tri packed
};

/// Most treatments one table or compact pass accumulates at once.
constexpr size_t kMaxCateBatch = 4;

/// One treatment of a table or compact pass: its treated mask over the
/// whole table (the arm bit of each row) and its own overall / protected
/// / non-protected sinks.
struct CateTreatmentSinks {
  const uint64_t* treated_words = nullptr;
  CateSink overall;
  CateSink prot;
  CateSink nonprot;
};

/// Inputs of the fused accumulation pass: the group, valid and protected
/// bitmaps walked in lockstep over one word range, the row->cell map, the
/// table's outcome column, (for the regression-with-numeric-confounders
/// case) the cached numeric confounder columns, and 1..kMaxCateBatch
/// treatments over that one partition. A row is accumulated iff its group
/// bit and its valid bit are both set; its cell, outcome and subgroup are
/// read once and added to every treatment's sinks.
struct CateAccumArgs {
  const uint64_t* group_words = nullptr;
  /// Null: no protected split (prot/nonprot sinks unused).
  const uint64_t* protected_words = nullptr;
  /// Rows whose outcome is non-null; every other row is masked out word
  /// by word, so the row loop never tests a row for exclusion.
  const uint64_t* valid_words = nullptr;
  /// Cell per row; only read at valid rows, where it is >= 0.
  const int32_t* cell_of_row = nullptr;
  /// The outcome column itself (NaN at null rows, which are never read).
  const double* outcome = nullptr;
  /// Numeric confounder columns, [num_numeric] pointers; null when
  /// moments is false.
  const double* const* zcols = nullptr;
  size_t num_numeric = 0;
  bool moments = false;
  /// The first row accumulated: the pass starts at word row_begin / 64
  /// with that word's lower bits masked (an append's delta pass).
  size_t row_begin = 0;
  /// One past the last word read.
  size_t word_end = 0;
  /// 1..kMaxCateBatch.
  size_t num_treatments = 0;
  CateTreatmentSinks treatments[kMaxCateBatch];
};

/// Inputs of the compact accumulation pass: a group's rows gathered once
/// into dense arrays (CompactGroup, causal/cate_stats_engine.h), and
/// 1..kMaxCateBatch treatments over the partition the arrays are bound
/// to. Stored word i stands for table word word_index[i]: its rows are
/// the set bits of word_bits[i], and they hold consecutive positions of
/// the per-row arrays in ascending row order. A row's cell, outcome and
/// subgroup are read once and added to every treatment's sinks.
struct CateCompactArgs {
  const uint32_t* word_index = nullptr;
  const uint64_t* word_bits = nullptr;
  /// The protected bits of each stored word; null: no protected split
  /// (prot/nonprot sinks unused).
  const uint64_t* word_prot = nullptr;
  size_t num_words = 0;
  /// Dense cell id per gathered row: its slots are 2*id + arm.
  const uint32_t* cell = nullptr;
  /// Outcome per gathered row.
  const double* outcome = nullptr;
  /// Numeric confounder values per gathered row, [num_numeric] pointers;
  /// null when moments is false.
  const double* const* zcols = nullptr;
  size_t num_numeric = 0;
  bool moments = false;
  /// 1..kMaxCateBatch; each treatment's treated mask is read at
  /// word_index[i].
  size_t num_treatments = 0;
  CateTreatmentSinks treatments[kMaxCateBatch];
};

/// The per-ISA kernel table. Results are identical across tiers (see file
/// comment); only throughput differs.
struct Kernels {
  /// Σ popcount(words[i]).
  size_t (*popcount)(const uint64_t* words, size_t num_words);
  /// Σ popcount(a[i] & b[i]) — fused intersection cardinality.
  size_t (*and_count)(const uint64_t* a, const uint64_t* b, size_t num_words);
  /// Σ popcount(a[i] & ~b[i]) — fused difference cardinality.
  size_t (*andnot_count)(const uint64_t* a, const uint64_t* b,
                         size_t num_words);
  /// a[i] &= b[i] / a[i] |= b[i] / a[i] &= ~b[i].
  void (*and_inplace)(uint64_t* a, const uint64_t* b, size_t num_words);
  void (*or_inplace)(uint64_t* a, const uint64_t* b, size_t num_words);
  void (*andnot_inplace)(uint64_t* a, const uint64_t* b, size_t num_words);
  /// Writes ceil(n/64) mask words: bit r set iff codes[r] == code.
  /// Every word is fully overwritten; padding bits past n stay clear.
  void (*mask_codes_eq)(const int32_t* codes, size_t n, int32_t code,
                        uint64_t* out);
  /// Bit r set iff codes[r] != null_code && codes[r] != code (the kNe /
  /// out-of-dictionary scan: null never matches any operator).
  void (*mask_codes_ne)(const int32_t* codes, size_t n, int32_t null_code,
                        int32_t code, uint64_t* out);
  /// Bit r set iff !isnan(values[r]) && cmp(values[r], op, rhs) — NaN
  /// cells are nulls and excluded under every operator, kNe included.
  void (*mask_numeric_cmp)(const double* values, size_t n, Cmp op, double rhs,
                           uint64_t* out);
  /// The fused CateStatsEngine accumulation pass over one word range:
  /// group/valid(/protected) bitmaps in lockstep, and for each of the
  /// pass's treatments per-(cell, arm) {n, Σy, Σy²} (+ numeric moments)
  /// into its overall sink and, when splitting, its protected-or-
  /// nonprotected sink — each bitmap word, cell id and outcome read once
  /// for all treatments. Row counts come from per-word popcounts; every
  /// slot receives its float adds in ascending row order with the scalar
  /// loop's associations.
  void (*cate_accumulate)(const CateAccumArgs& args);
  /// The same fused accumulation over a gathered group: per-row cell ids
  /// and outcomes are read sequentially, once for all of the pass's
  /// treatments, and each treatment's arm bit comes from its treated word
  /// at each stored word. Per-slot float adds keep ascending row order.
  void (*cate_accumulate_compact)(const CateCompactArgs& args);
};

/// Kernel table for the currently active tier (one atomic load).
const Kernels& ActiveKernels();

/// Kernel table for a specific tier, or null if that tier is unavailable
/// on this host/build — lets tests and benches pin a path explicitly.
const Kernels* KernelsFor(SimdLevel level);

}  // namespace simd
}  // namespace faircap

#endif  // FAIRCAP_UTIL_SIMD_SIMD_H_
