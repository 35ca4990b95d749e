#include "dataframe/bitmap.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "util/simd/simd.h"

namespace faircap {
namespace {

TEST(BitmapTest, StartsAllClear) {
  Bitmap b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_TRUE(b.AllZero());
}

TEST(BitmapTest, AllSetConstructorClearsPadding) {
  Bitmap b(70, /*value=*/true);
  EXPECT_EQ(b.Count(), 70u);
  // Complement must also be consistent with the logical size.
  EXPECT_EQ((~b).Count(), 0u);
}

TEST(BitmapTest, SetGetClear) {
  Bitmap b(128);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(127);
  EXPECT_TRUE(b.Get(0));
  EXPECT_TRUE(b.Get(63));
  EXPECT_TRUE(b.Get(64));
  EXPECT_TRUE(b.Get(127));
  EXPECT_FALSE(b.Get(1));
  EXPECT_EQ(b.Count(), 4u);
  b.Clear(63);
  EXPECT_FALSE(b.Get(63));
  EXPECT_EQ(b.Count(), 3u);
}

TEST(BitmapTest, AndOrAndNot) {
  Bitmap a(10), b(10);
  a.Set(1);
  a.Set(2);
  a.Set(3);
  b.Set(2);
  b.Set(3);
  b.Set(4);
  EXPECT_EQ((a & b).Count(), 2u);
  EXPECT_EQ((a | b).Count(), 4u);
  Bitmap diff = a;
  diff.AndNot(b);
  EXPECT_EQ(diff.Count(), 1u);
  EXPECT_TRUE(diff.Get(1));
}

TEST(BitmapTest, AndCountMatchesMaterializedIntersection) {
  // Multiple words plus a partial tail word.
  Bitmap a(193), b(193);
  for (size_t i = 0; i < 193; i += 3) a.Set(i);
  for (size_t i = 0; i < 193; i += 5) b.Set(i);
  EXPECT_EQ(a.AndCount(b), (a & b).Count());
  EXPECT_EQ(b.AndCount(a), a.AndCount(b));
  EXPECT_EQ(a.AndCount(a), a.Count());

  Bitmap all(193, /*value=*/true);
  EXPECT_EQ(a.AndCount(all), a.Count());
  Bitmap none(193);
  EXPECT_EQ(a.AndCount(none), 0u);
  EXPECT_EQ(Bitmap(0).AndCount(Bitmap(0)), 0u);
}

TEST(BitmapTest, AndNotCountMatchesMaterializedDifference) {
  Bitmap a(130), b(130);
  for (size_t i = 0; i < 130; i += 2) a.Set(i);
  for (size_t i = 0; i < 130; i += 4) b.Set(i);
  Bitmap diff = a;
  diff.AndNot(b);
  EXPECT_EQ(a.AndNotCount(b), diff.Count());
  EXPECT_EQ(a.AndNotCount(a), 0u);
}

TEST(BitmapTest, ComplementWithinSize) {
  Bitmap a(10);
  a.Set(0);
  a.Set(9);
  const Bitmap c = ~a;
  EXPECT_EQ(c.Count(), 8u);
  EXPECT_FALSE(c.Get(0));
  EXPECT_TRUE(c.Get(5));
}

TEST(BitmapTest, EqualityAndCopies) {
  Bitmap a(65), b(65);
  a.Set(64);
  b.Set(64);
  EXPECT_TRUE(a == b);
  b.Set(0);
  EXPECT_FALSE(a == b);
}

TEST(BitmapTest, ToIndicesAscending) {
  Bitmap b(200);
  b.Set(199);
  b.Set(0);
  b.Set(77);
  const auto idx = b.ToIndices();
  ASSERT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx[0], 0u);
  EXPECT_EQ(idx[1], 77u);
  EXPECT_EQ(idx[2], 199u);
}

TEST(BitmapTest, ForEachVisitsEachSetBitOnce) {
  Bitmap b(150);
  for (size_t i = 0; i < 150; i += 7) b.Set(i);
  size_t visits = 0;
  size_t last = 0;
  b.ForEach([&](size_t i) {
    EXPECT_TRUE(b.Get(i));
    EXPECT_TRUE(visits == 0 || i > last);
    last = i;
    ++visits;
  });
  EXPECT_EQ(visits, b.Count());
}

TEST(BitmapTest, EmptyBitmap) {
  Bitmap b(0);
  EXPECT_EQ(b.Count(), 0u);
  b.ForEach([](size_t) { FAIL() << "no bits to visit"; });
}

TEST(BitmapTest, ForEachAndSkipsBitsOutsideEither) {
  Bitmap a(130), b(130);
  a.Set(0);
  a.Set(64);
  a.Set(129);
  b.Set(64);
  b.Set(100);
  b.Set(129);
  std::vector<size_t> seen;
  a.ForEachAnd(b, [&](size_t i) { seen.push_back(i); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 64u);
  EXPECT_EQ(seen[1], 129u);
}

// Word-level ops walk `other`'s words over *this*'s word count; a
// mismatched universe must abort on the FAIRCAP_CHECK size checks in
// every build type instead of reading out of bounds.
TEST(BitmapDeathTest, MismatchedSizesAreCaught) {
  Bitmap big(256);
  Bitmap small(64);
  big.Set(200);
  small.Set(1);
  EXPECT_DEATH(big.ForEachAnd(small, [](size_t) {}), "num_bits_");
  EXPECT_DEATH((void)big.AndCount(small), "num_bits_");
  EXPECT_DEATH((void)big.AndNotCount(small), "num_bits_");
  EXPECT_DEATH((void)(big &= small), "num_bits_");
  EXPECT_DEATH((void)(big |= small), "num_bits_");
  EXPECT_DEATH((void)big.AndNot(small), "num_bits_");
}

// ---------------------------------------------------------------------
// ISA sweep: every SIMD tier this host supports must produce the exact
// counts and the bit-identical words of the scalar tier, across sizes
// that hit every tail shape (empty, sub-word, word-aligned, off-by-one
// around the vector block widths, and large-enough-to-vectorize).

Bitmap RandomBitmap(size_t bits, double density, std::mt19937_64* rng) {
  Bitmap b(bits);
  std::bernoulli_distribution coin(density);
  for (size_t i = 0; i < bits; ++i) {
    if (coin(*rng)) b.Set(i);
  }
  return b;
}

TEST(BitmapSimdSweepTest, AllTiersMatchScalarOnBitmapAlgebra) {
  const size_t kSizes[] = {0,   1,    63,   64,   65,    127,  128,
                           129, 1000, 1023, 1024, 16384, 100003};
  std::mt19937_64 rng(42);
  for (const size_t bits : kSizes) {
    // Random pairs plus the adversarial all-zero / all-one shapes.
    struct Pair {
      Bitmap a;
      Bitmap b;
    };
    std::vector<Pair> pairs;
    pairs.push_back({RandomBitmap(bits, 0.5, &rng),
                     RandomBitmap(bits, 0.5, &rng)});
    pairs.push_back({RandomBitmap(bits, 0.02, &rng),
                     RandomBitmap(bits, 0.98, &rng)});
    pairs.push_back({Bitmap(bits), Bitmap(bits, /*value=*/true)});
    pairs.push_back({Bitmap(bits, /*value=*/true),
                     Bitmap(bits, /*value=*/true)});
    for (const Pair& pair : pairs) {
      // Scalar reference.
      size_t ref_count, ref_and, ref_andnot;
      Bitmap ref_anded(0), ref_ored(0), ref_diffed(0);
      {
        simd::ScopedSimdLevel pin(simd::SimdLevel::kScalar);
        ref_count = pair.a.Count();
        ref_and = pair.a.AndCount(pair.b);
        ref_andnot = pair.a.AndNotCount(pair.b);
        ref_anded = pair.a;
        ref_anded &= pair.b;
        ref_ored = pair.a;
        ref_ored |= pair.b;
        ref_diffed = pair.a;
        ref_diffed.AndNot(pair.b);
      }
      for (const simd::SimdLevel level : simd::SupportedSimdLevels()) {
        simd::ScopedSimdLevel pin(level);
        const std::string tag = std::string(simd::SimdLevelName(level)) +
                                "/bits=" + std::to_string(bits);
        EXPECT_EQ(pair.a.Count(), ref_count) << tag;
        EXPECT_EQ(pair.a.AndCount(pair.b), ref_and) << tag;
        EXPECT_EQ(pair.a.AndNotCount(pair.b), ref_andnot) << tag;
        Bitmap anded = pair.a;
        anded &= pair.b;
        EXPECT_TRUE(anded == ref_anded) << tag;
        Bitmap ored = pair.a;
        ored |= pair.b;
        EXPECT_TRUE(ored == ref_ored) << tag;
        Bitmap diffed = pair.a;
        diffed.AndNot(pair.b);
        EXPECT_TRUE(diffed == ref_diffed) << tag;
        // Padding stays clear through every tier's in-place ops.
        EXPECT_EQ((~ored).Count(), bits - ored.Count()) << tag;
      }
    }
  }
}

TEST(BitmapSimdSweepTest, AllTiersMatchScalarOnCompareScanKernels) {
  const size_t kSizes[] = {1, 63, 64, 65, 127, 128, 1000, 4096, 100003};
  std::mt19937_64 rng(43);
  const int32_t kNull = -1;
  for (const size_t n : kSizes) {
    std::vector<int32_t> codes(n);
    std::vector<double> values(n);
    std::uniform_int_distribution<int32_t> code_dist(0, 4);
    std::uniform_real_distribution<double> val_dist(-2.0, 2.0);
    std::bernoulli_distribution null_coin(0.1);
    for (size_t i = 0; i < n; ++i) {
      codes[i] = null_coin(rng) ? kNull : code_dist(rng);
      values[i] = null_coin(rng) ? std::nan("") : val_dist(rng);
    }
    const size_t num_words = (n + 63) / 64;
    const simd::Kernels* scalar =
        simd::KernelsFor(simd::SimdLevel::kScalar);
    ASSERT_NE(scalar, nullptr);
    // Prefill outputs with garbage: the kernels must fully overwrite
    // every word, including clearing the padding bits past n.
    std::vector<uint64_t> ref(num_words), got(num_words);
    for (const simd::SimdLevel level : simd::SupportedSimdLevels()) {
      const simd::Kernels* kernels = simd::KernelsFor(level);
      ASSERT_NE(kernels, nullptr);
      const std::string tag = std::string(simd::SimdLevelName(level)) +
                              "/n=" + std::to_string(n);
      for (const int32_t code : {0, 2, -2}) {
        ref.assign(num_words, ~0ULL);
        got.assign(num_words, ~0ULL);
        scalar->mask_codes_eq(codes.data(), n, code, ref.data());
        kernels->mask_codes_eq(codes.data(), n, code, got.data());
        EXPECT_EQ(got, ref) << tag << " eq code=" << code;
        ref.assign(num_words, ~0ULL);
        got.assign(num_words, ~0ULL);
        scalar->mask_codes_ne(codes.data(), n, kNull, code, ref.data());
        kernels->mask_codes_ne(codes.data(), n, kNull, code, got.data());
        EXPECT_EQ(got, ref) << tag << " ne code=" << code;
      }
      for (const simd::Cmp op :
           {simd::Cmp::kEq, simd::Cmp::kNe, simd::Cmp::kLt, simd::Cmp::kLe,
            simd::Cmp::kGt, simd::Cmp::kGe}) {
        ref.assign(num_words, ~0ULL);
        got.assign(num_words, ~0ULL);
        scalar->mask_numeric_cmp(values.data(), n, op, 0.25, ref.data());
        kernels->mask_numeric_cmp(values.data(), n, op, 0.25, got.data());
        EXPECT_EQ(got, ref) << tag << " cmp op="
                            << static_cast<int>(op);
      }
    }
  }
}

TEST(BitmapSimdSweepTest, LevelKnobRoundTrips) {
  const simd::SimdLevel original = simd::ActiveSimdLevel();
  for (const simd::SimdLevel level : simd::SupportedSimdLevels()) {
    simd::ScopedSimdLevel pin(level);
    EXPECT_EQ(simd::ActiveSimdLevel(), level);
    EXPECT_EQ(&simd::ActiveKernels(), simd::KernelsFor(level));
  }
  EXPECT_EQ(simd::ActiveSimdLevel(), original);
  simd::SimdLevel parsed;
  EXPECT_TRUE(simd::ParseSimdLevel("avx2", &parsed));
  EXPECT_EQ(parsed, simd::SimdLevel::kAvx2);
  EXPECT_FALSE(simd::ParseSimdLevel("sse9", &parsed));
}

TEST(BitmapSimdSweepDeathTest, PinningAnUnsupportedLevelAborts) {
  if (simd::MaxSupportedSimdLevel() == simd::SimdLevel::kAvx512) {
    GTEST_SKIP() << "every tier runs on this host";
  }
  EXPECT_DEATH({ const simd::ScopedSimdLevel pin(simd::SimdLevel::kAvx512); },
               "CHECK failed");
}

// Resize is the append-path primitive: a resident mask extends to cover
// delta rows. Growth must preserve every resident bit, leave the new
// tail clear, and keep the padding invariant (so Count/complement stay
// consistent) at every alignment: mid-word, word-boundary, and
// sub-word growth.
TEST(BitmapTest, ResizeGrowPreservesBitsAtEveryAlignment) {
  struct Case {
    size_t from;
    size_t to;
  };
  const Case cases[] = {
      {70, 100},   // mid-word -> mid-word, same word count
      {70, 129},   // mid-word across a word boundary
      {64, 128},   // exact word boundary to exact word boundary
      {70, 75},    // sub-word growth (delta < 64 rows)
      {63, 64},    // fills the last word exactly
      {0, 70},     // growth from empty
  };
  for (const Case& c : cases) {
    Bitmap b(c.from);
    for (size_t i = 0; i < c.from; i += 3) b.Set(i);
    const size_t count_before = b.Count();
    b.Resize(c.to);
    EXPECT_EQ(b.size(), c.to);
    EXPECT_EQ(b.Count(), count_before) << c.from << "->" << c.to;
    for (size_t i = 0; i < c.from; ++i) {
      EXPECT_EQ(b.Get(i), i % 3 == 0) << c.from << "->" << c.to << "@" << i;
    }
    for (size_t i = c.from; i < c.to; ++i) {
      EXPECT_FALSE(b.Get(i)) << c.from << "->" << c.to << "@" << i;
    }
    // Padding must be clear: the complement count is exact.
    EXPECT_EQ((~b).Count(), c.to - count_before) << c.from << "->" << c.to;
  }
}

TEST(BitmapTest, ResizeShrinkDropsTailAndKeepsPaddingClean) {
  Bitmap b(130, /*value=*/true);
  b.Resize(70);
  EXPECT_EQ(b.size(), 70u);
  EXPECT_EQ(b.Count(), 70u);
  EXPECT_EQ((~b).Count(), 0u);
  // Re-grow: the previously-set bits past the shrink must stay gone.
  b.Resize(130);
  EXPECT_EQ(b.Count(), 70u);
  for (size_t i = 70; i < 130; ++i) EXPECT_FALSE(b.Get(i));
}

// A mask grown in small increments (the lazy index-extension path) must
// be indistinguishable from one built at full size, under every SIMD
// tier: Count / AndCount / AndNotCount / word-level equality.
TEST(BitmapSimdSweepTest, IncrementalResizeMatchesFreshAcrossTiers) {
  std::mt19937_64 rng(1234);
  const size_t kFinal = 1000;
  Bitmap grown(320);
  Bitmap fresh(kFinal);
  std::vector<size_t> set_bits;
  auto fill_range = [&](Bitmap* b, size_t begin, size_t end, bool record) {
    for (size_t i = begin; i < end; ++i) {
      if (rng() % 2 == 0) {
        b->Set(i);
        if (record) set_bits.push_back(i);
      }
    }
  };
  std::vector<size_t> sizes = {320, 321, 384, 447, 512, 700, kFinal};
  size_t covered = 0;
  for (size_t i = 0; i + 1 < sizes.size(); ++i) {
    fill_range(&grown, covered, sizes[i], /*record=*/true);
    covered = sizes[i];
    grown.Resize(sizes[i + 1]);
  }
  fill_range(&grown, covered, kFinal, /*record=*/true);
  for (const size_t bit : set_bits) fresh.Set(bit);
  Bitmap other(kFinal);
  fill_range(&other, 0, kFinal, /*record=*/false);
  for (const simd::SimdLevel level : simd::SupportedSimdLevels()) {
    simd::ScopedSimdLevel pin(level);
    const std::string tag = simd::SimdLevelName(level);
    EXPECT_EQ(grown.Count(), fresh.Count()) << tag;
    EXPECT_EQ(grown.AndCount(other), fresh.AndCount(other)) << tag;
    EXPECT_EQ(grown.AndNotCount(other), fresh.AndNotCount(other)) << tag;
    EXPECT_EQ((grown & other).Count(), (fresh & other).Count()) << tag;
  }
  ASSERT_EQ(grown.num_words(), fresh.num_words());
  for (size_t w = 0; w < grown.num_words(); ++w) {
    EXPECT_EQ(grown.words()[w], fresh.words()[w]) << "word " << w;
  }
}

}  // namespace
}  // namespace faircap
