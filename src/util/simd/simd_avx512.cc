// AVX-512 kernel tier. Compiled with -mavx512f/bw/dq/vl/vpopcntdq (see
// src/util/CMakeLists.txt); dispatch additionally gates this tier on the
// host reporting all five extensions, so the intrinsics here can be used
// unconditionally.
//
// Counting kernels ride the VPOPCNTDQ per-lane popcount — no CSA tree
// needed, one vpopcntq + vpaddq per 512-bit block. The compare-scan
// kernels use the native compare-to-mask instructions (16 int32 lanes or
// 8 double lanes fold straight into bitmap word fragments, no movemask
// shuffle). The accumulation kernels (table and compact) are the shared
// row loops of simd_kernels_core.h, compiled here with the AVX-512 flags.

#include <immintrin.h>

#include "util/simd/simd_kernels_core.h"

namespace faircap {
namespace simd {
namespace {

inline uint64_t ReduceAddEpi64(__m512i v) {
  return static_cast<uint64_t>(_mm512_reduce_add_epi64(v));
}

template <typename BlockLoad, typename WordLoad>
size_t PopcntdqCount(BlockLoad block, WordLoad word, size_t num_words) {
  const size_t blocks = num_words / 8;
  __m512i total = _mm512_setzero_si512();
  // Two independent accumulators hide the vpaddq latency chain.
  __m512i total2 = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 2 <= blocks; i += 2) {
    total = _mm512_add_epi64(total, _mm512_popcnt_epi64(block(i)));
    total2 = _mm512_add_epi64(total2, _mm512_popcnt_epi64(block(i + 1)));
  }
  for (; i < blocks; ++i) {
    total = _mm512_add_epi64(total, _mm512_popcnt_epi64(block(i)));
  }
  size_t count = ReduceAddEpi64(_mm512_add_epi64(total, total2));
  for (size_t w = blocks * 8; w < num_words; ++w) {
    count += static_cast<size_t>(__builtin_popcountll(word(w)));
  }
  return count;
}

size_t Avx512Popcount(const uint64_t* words, size_t num_words) {
  return PopcntdqCount(
      [&](size_t i) { return _mm512_loadu_si512(words + i * 8); },
      [&](size_t w) { return words[w]; }, num_words);
}

size_t Avx512AndCount(const uint64_t* a, const uint64_t* b,
                      size_t num_words) {
  return PopcntdqCount(
      [&](size_t i) {
        return _mm512_and_si512(_mm512_loadu_si512(a + i * 8),
                                _mm512_loadu_si512(b + i * 8));
      },
      [&](size_t w) { return a[w] & b[w]; }, num_words);
}

size_t Avx512AndNotCount(const uint64_t* a, const uint64_t* b,
                         size_t num_words) {
  return PopcntdqCount(
      [&](size_t i) {
        // andnot(b, a) = a & ~b.
        return _mm512_andnot_si512(_mm512_loadu_si512(b + i * 8),
                                   _mm512_loadu_si512(a + i * 8));
      },
      [&](size_t w) { return a[w] & ~b[w]; }, num_words);
}

template <typename Op>
inline void InplaceWords(uint64_t* a, const uint64_t* b, size_t num_words,
                         Op op) {
  size_t w = 0;
  for (; w + 8 <= num_words; w += 8) {
    _mm512_storeu_si512(
        a + w, op(_mm512_loadu_si512(a + w), _mm512_loadu_si512(b + w)));
  }
  const size_t rem = num_words - w;
  if (rem != 0) {
    const __mmask8 tail = static_cast<__mmask8>((1u << rem) - 1u);
    const __m512i va = _mm512_maskz_loadu_epi64(tail, a + w);
    const __m512i vb = _mm512_maskz_loadu_epi64(tail, b + w);
    _mm512_mask_storeu_epi64(a + w, tail, op(va, vb));
  }
}

void Avx512AndInplace(uint64_t* a, const uint64_t* b, size_t num_words) {
  InplaceWords(a, b, num_words,
               [](__m512i x, __m512i y) { return _mm512_and_si512(x, y); });
}

void Avx512OrInplace(uint64_t* a, const uint64_t* b, size_t num_words) {
  InplaceWords(a, b, num_words,
               [](__m512i x, __m512i y) { return _mm512_or_si512(x, y); });
}

void Avx512AndNotInplace(uint64_t* a, const uint64_t* b, size_t num_words) {
  InplaceWords(a, b, num_words,
               [](__m512i x, __m512i y) { return _mm512_andnot_si512(y, x); });
}

// One full 64-row mask word from four 16-lane compare-to-mask ops.
void Avx512MaskCodesEq(const int32_t* codes, size_t n, int32_t code,
                       uint64_t* out) {
  const __m512i target = _mm512_set1_epi32(code);
  const size_t full_words = n / 64;
  for (size_t w = 0; w < full_words; ++w) {
    const int32_t* p = codes + w * 64;
    uint64_t word = 0;
    for (int g = 0; g < 4; ++g) {
      const __m512i v = _mm512_loadu_si512(p + g * 16);
      const uint64_t m = _mm512_cmpeq_epi32_mask(v, target);
      word |= m << (g * 16);
    }
    out[w] = word;
  }
  if (n % 64 != 0) {
    out[full_words] = core::CodesEqWord(codes + full_words * 64, n % 64, code);
  }
}

void Avx512MaskCodesNe(const int32_t* codes, size_t n, int32_t null_code,
                       int32_t code, uint64_t* out) {
  const __m512i target = _mm512_set1_epi32(code);
  const __m512i null_target = _mm512_set1_epi32(null_code);
  const size_t full_words = n / 64;
  for (size_t w = 0; w < full_words; ++w) {
    const int32_t* p = codes + w * 64;
    uint64_t word = 0;
    for (int g = 0; g < 4; ++g) {
      const __m512i v = _mm512_loadu_si512(p + g * 16);
      const uint64_t m =
          _mm512_cmpneq_epi32_mask(v, target) &
          _mm512_cmpneq_epi32_mask(v, null_target);
      word |= m << (g * 16);
    }
    out[w] = word;
  }
  if (n % 64 != 0) {
    out[full_words] =
        core::CodesNeWord(codes + full_words * 64, n % 64, null_code, code);
  }
}

// Ordered-quiet predicates: NaN lanes never match (null convention).
template <int kImm>
void MaskNumericCmpImm(const double* values, size_t n, Cmp op, double rhs,
                       uint64_t* out) {
  const __m512d target = _mm512_set1_pd(rhs);
  const size_t full_words = n / 64;
  for (size_t w = 0; w < full_words; ++w) {
    const double* p = values + w * 64;
    uint64_t word = 0;
    for (int g = 0; g < 8; ++g) {
      const __m512d v = _mm512_loadu_pd(p + g * 8);
      const uint64_t m = _mm512_cmp_pd_mask(v, target, kImm);
      word |= m << (g * 8);
    }
    out[w] = word;
  }
  if (n % 64 != 0) {
    out[full_words] =
        core::NumericCmpWord(values + full_words * 64, n % 64, op, rhs);
  }
}

void Avx512MaskNumericCmp(const double* values, size_t n, Cmp op, double rhs,
                          uint64_t* out) {
  switch (op) {
    case Cmp::kEq:
      return MaskNumericCmpImm<_CMP_EQ_OQ>(values, n, op, rhs, out);
    case Cmp::kNe:
      return MaskNumericCmpImm<_CMP_NEQ_OQ>(values, n, op, rhs, out);
    case Cmp::kLt:
      return MaskNumericCmpImm<_CMP_LT_OQ>(values, n, op, rhs, out);
    case Cmp::kLe:
      return MaskNumericCmpImm<_CMP_LE_OQ>(values, n, op, rhs, out);
    case Cmp::kGt:
      return MaskNumericCmpImm<_CMP_GT_OQ>(values, n, op, rhs, out);
    case Cmp::kGe:
      return MaskNumericCmpImm<_CMP_GE_OQ>(values, n, op, rhs, out);
  }
}

const Kernels kAvx512Kernels = {
    Avx512Popcount,
    Avx512AndCount,
    Avx512AndNotCount,
    Avx512AndInplace,
    Avx512OrInplace,
    Avx512AndNotInplace,
    Avx512MaskCodesEq,
    Avx512MaskCodesNe,
    Avx512MaskNumericCmp,
    core::CateAccumulate,
    core::CateAccumulateCompact,
};

}  // namespace

const Kernels* GetAvx512Kernels() { return &kAvx512Kernels; }

}  // namespace simd
}  // namespace faircap
