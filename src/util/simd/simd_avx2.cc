// AVX2 kernel tier. Compiled with -mavx2 (see src/util/CMakeLists.txt);
// only dispatched to when CPUID reports AVX2, so the intrinsics here can
// be used unconditionally.
//
// Counting kernels use a Harley–Seal carry-save adder over 256-bit lanes
// with the nibble-LUT popcount (the classic Muła/Kurz/Lemire layout):
// sixteen 256-bit blocks per iteration, one vector popcount per sixteen
// loads instead of one per word. The compare-scan kernels turn vector
// compare masks straight into bitmap words (8 int32 / 4 double lanes per
// movemask). The accumulation kernels (table and compact) are the shared
// row loops of simd_kernels_core.h, compiled here with -mavx2 (that
// header explains why each slot's add sequence must stay the scalar one).

#include <immintrin.h>

#include "util/simd/simd_kernels_core.h"

namespace faircap {
namespace simd {
namespace {

inline __m256i PopcountEpi64(__m256i v) {
  const __m256i lookup = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i cnt =
      _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                      _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

inline void Csa(__m256i* high, __m256i* low, __m256i a, __m256i b,
                __m256i c) {
  const __m256i u = _mm256_xor_si256(a, b);
  *high = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
  *low = _mm256_xor_si256(u, c);
}

inline uint64_t ReduceAddEpi64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<uint64_t>(_mm_extract_epi64(sum, 0)) +
         static_cast<uint64_t>(_mm_extract_epi64(sum, 1));
}

/// Harley–Seal popcount over `num_words` uint64 words, where BlockLoad(i)
/// yields the i-th 256-bit block and WordLoad(i) the i-th uint64 word of
/// the (possibly fused AND/ANDNOT) input stream.
template <typename BlockLoad, typename WordLoad>
size_t HarleySealCount(BlockLoad block, WordLoad word, size_t num_words) {
  const size_t blocks = num_words / 4;
  __m256i total = _mm256_setzero_si256();
  __m256i ones = _mm256_setzero_si256();
  __m256i twos = _mm256_setzero_si256();
  __m256i fours = _mm256_setzero_si256();
  __m256i eights = _mm256_setzero_si256();
  __m256i twos_a, twos_b, fours_a, fours_b, eights_a, eights_b, sixteens;
  size_t i = 0;
  for (; i + 16 <= blocks; i += 16) {
    Csa(&twos_a, &ones, ones, block(i + 0), block(i + 1));
    Csa(&twos_b, &ones, ones, block(i + 2), block(i + 3));
    Csa(&fours_a, &twos, twos, twos_a, twos_b);
    Csa(&twos_a, &ones, ones, block(i + 4), block(i + 5));
    Csa(&twos_b, &ones, ones, block(i + 6), block(i + 7));
    Csa(&fours_b, &twos, twos, twos_a, twos_b);
    Csa(&eights_a, &fours, fours, fours_a, fours_b);
    Csa(&twos_a, &ones, ones, block(i + 8), block(i + 9));
    Csa(&twos_b, &ones, ones, block(i + 10), block(i + 11));
    Csa(&fours_a, &twos, twos, twos_a, twos_b);
    Csa(&twos_a, &ones, ones, block(i + 12), block(i + 13));
    Csa(&twos_b, &ones, ones, block(i + 14), block(i + 15));
    Csa(&fours_b, &twos, twos, twos_a, twos_b);
    Csa(&eights_b, &fours, fours, fours_a, fours_b);
    Csa(&sixteens, &eights, eights, eights_a, eights_b);
    total = _mm256_add_epi64(total, PopcountEpi64(sixteens));
  }
  total = _mm256_slli_epi64(total, 4);
  total = _mm256_add_epi64(total,
                           _mm256_slli_epi64(PopcountEpi64(eights), 3));
  total = _mm256_add_epi64(total,
                           _mm256_slli_epi64(PopcountEpi64(fours), 2));
  total = _mm256_add_epi64(total,
                           _mm256_slli_epi64(PopcountEpi64(twos), 1));
  total = _mm256_add_epi64(total, PopcountEpi64(ones));
  for (; i < blocks; ++i) {
    total = _mm256_add_epi64(total, PopcountEpi64(block(i)));
  }
  size_t count = ReduceAddEpi64(total);
  for (size_t w = blocks * 4; w < num_words; ++w) {
    count += static_cast<size_t>(__builtin_popcountll(word(w)));
  }
  return count;
}

size_t Avx2Popcount(const uint64_t* words, size_t num_words) {
  return HarleySealCount(
      [&](size_t i) {
        return _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(words + i * 4));
      },
      [&](size_t w) { return words[w]; }, num_words);
}

size_t Avx2AndCount(const uint64_t* a, const uint64_t* b, size_t num_words) {
  return HarleySealCount(
      [&](size_t i) {
        const __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i * 4));
        const __m256i vb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i * 4));
        return _mm256_and_si256(va, vb);
      },
      [&](size_t w) { return a[w] & b[w]; }, num_words);
}

size_t Avx2AndNotCount(const uint64_t* a, const uint64_t* b,
                       size_t num_words) {
  return HarleySealCount(
      [&](size_t i) {
        const __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i * 4));
        const __m256i vb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i * 4));
        // andnot(b, a) = a & ~b.
        return _mm256_andnot_si256(vb, va);
      },
      [&](size_t w) { return a[w] & ~b[w]; }, num_words);
}

template <typename Op>
inline void InplaceWords(uint64_t* a, const uint64_t* b, size_t num_words,
                         Op op) {
  size_t w = 0;
  for (; w + 4 <= num_words; w += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + w), op(va, vb));
  }
  for (; w < num_words; ++w) {
    alignas(32) uint64_t tmp_a[4] = {a[w], 0, 0, 0};
    alignas(32) uint64_t tmp_b[4] = {b[w], 0, 0, 0};
    const __m256i va =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(tmp_a));
    const __m256i vb =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(tmp_b));
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp_a), op(va, vb));
    a[w] = tmp_a[0];
  }
}

void Avx2AndInplace(uint64_t* a, const uint64_t* b, size_t num_words) {
  InplaceWords(a, b, num_words,
               [](__m256i x, __m256i y) { return _mm256_and_si256(x, y); });
}

void Avx2OrInplace(uint64_t* a, const uint64_t* b, size_t num_words) {
  InplaceWords(a, b, num_words,
               [](__m256i x, __m256i y) { return _mm256_or_si256(x, y); });
}

void Avx2AndNotInplace(uint64_t* a, const uint64_t* b, size_t num_words) {
  InplaceWords(a, b, num_words,
               [](__m256i x, __m256i y) { return _mm256_andnot_si256(y, x); });
}

// One full 64-row mask word from eight 8-lane int32 equality compares.
inline uint64_t CodesEqWord64(const int32_t* codes, __m256i target) {
  uint64_t word = 0;
  for (int g = 0; g < 8; ++g) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(codes + g * 8));
    const uint32_t m = static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(v, target))));
    word |= static_cast<uint64_t>(m) << (g * 8);
  }
  return word;
}

void Avx2MaskCodesEq(const int32_t* codes, size_t n, int32_t code,
                     uint64_t* out) {
  const __m256i target = _mm256_set1_epi32(code);
  const size_t full_words = n / 64;
  for (size_t w = 0; w < full_words; ++w) {
    out[w] = CodesEqWord64(codes + w * 64, target);
  }
  if (n % 64 != 0) {
    out[full_words] = core::CodesEqWord(codes + full_words * 64, n % 64, code);
  }
}

void Avx2MaskCodesNe(const int32_t* codes, size_t n, int32_t null_code,
                     int32_t code, uint64_t* out) {
  // != code and != null_code  ==  ~(== code | == null_code).
  const __m256i target = _mm256_set1_epi32(code);
  const __m256i null_target = _mm256_set1_epi32(null_code);
  const size_t full_words = n / 64;
  for (size_t w = 0; w < full_words; ++w) {
    const int32_t* p = codes + w * 64;
    uint64_t matched = 0;
    for (int g = 0; g < 8; ++g) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + g * 8));
      const __m256i hit = _mm256_or_si256(_mm256_cmpeq_epi32(v, target),
                                          _mm256_cmpeq_epi32(v, null_target));
      const uint32_t m = static_cast<uint32_t>(
          _mm256_movemask_ps(_mm256_castsi256_ps(hit)));
      matched |= static_cast<uint64_t>(m) << (g * 8);
    }
    out[w] = ~matched;
  }
  if (n % 64 != 0) {
    out[full_words] =
        core::CodesNeWord(codes + full_words * 64, n % 64, null_code, code);
  }
}

// Ordered-quiet compares: false whenever a lane is NaN, which implements
// the "null matches nothing, kNe included" convention in the predicate.
template <int kImm>
void MaskNumericCmpImm(const double* values, size_t n, Cmp op, double rhs,
                       uint64_t* out) {
  const __m256d target = _mm256_set1_pd(rhs);
  const size_t full_words = n / 64;
  for (size_t w = 0; w < full_words; ++w) {
    const double* p = values + w * 64;
    uint64_t word = 0;
    for (int g = 0; g < 16; ++g) {
      const __m256d v = _mm256_loadu_pd(p + g * 4);
      const uint32_t m = static_cast<uint32_t>(
          _mm256_movemask_pd(_mm256_cmp_pd(v, target, kImm)));
      word |= static_cast<uint64_t>(m) << (g * 4);
    }
    out[w] = word;
  }
  if (n % 64 != 0) {
    out[full_words] =
        core::NumericCmpWord(values + full_words * 64, n % 64, op, rhs);
  }
}

void Avx2MaskNumericCmp(const double* values, size_t n, Cmp op, double rhs,
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

const Kernels kAvx2Kernels = {
    Avx2Popcount,
    Avx2AndCount,
    Avx2AndNotCount,
    Avx2AndInplace,
    Avx2OrInplace,
    Avx2AndNotInplace,
    Avx2MaskCodesEq,
    Avx2MaskCodesNe,
    Avx2MaskNumericCmp,
    core::CateAccumulate,
    core::CateAccumulateCompact,
};

}  // namespace

const Kernels* GetAvx2Kernels() { return &kAvx2Kernels; }

}  // namespace simd
}  // namespace faircap
