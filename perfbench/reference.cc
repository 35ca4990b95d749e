#include "reference.h"

#include <chrono>
#include <cstring>
#include <thread>

namespace perfbench {

namespace {

// The kernel has the shape of FairCap's inner loops, frozen here: a
// grouped {n, sum y, sum y^2} accumulate over 1M rows (CATE accumulation),
// AND + popcount over 1M-row bitmaps (predicate index and greedy
// selection), and small dense solves (the per-eval regressions).
constexpr size_t kRows = size_t{1} << 20;
constexpr size_t kCells = 64;
constexpr size_t kAccumulatePasses = 20;
constexpr size_t kBitmaps = 8;
constexpr size_t kBitmapWords = kRows / 64;
constexpr size_t kBitmapPasses = 60;
constexpr size_t kSolves = 180000;
constexpr int kDim = 6;

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

uint64_t Accumulate(const ReferenceKernel::Buffers& b) {
  double n[kCells] = {};
  double sy[kCells] = {};
  double syy[kCells] = {};
  for (size_t pass = 0; pass < kAccumulatePasses; ++pass) {
    for (size_t i = 0; i < kRows; ++i) {
      const uint16_t c = b.cells[i];
      const double y = b.outcome[i];
      n[c] += 1.0;
      sy[c] += y;
      syy[c] += y * y;
    }
  }
  uint64_t h = 0;
  for (size_t c = 0; c < kCells; ++c) {
    h = Mix(h ^ Bits(n[c]) ^ Bits(sy[c]) ^ Bits(syy[c]));
  }
  return h;
}

uint64_t AndCounts(const ReferenceKernel::Buffers& b) {
  uint64_t total = 0;
  for (size_t pass = 0; pass < kBitmapPasses; ++pass) {
    for (size_t x = 0; x < kBitmaps; ++x) {
      const uint64_t* lhs = &b.bitmaps[x * kBitmapWords];
      const uint64_t* rhs = &b.bitmaps[((x + pass + 1) % kBitmaps) *
                                       kBitmapWords];
      for (size_t w = 0; w < kBitmapWords; ++w) {
        total += static_cast<uint64_t>(__builtin_popcountll(lhs[w] & rhs[w]));
      }
    }
  }
  return total;
}

uint64_t Solves(const ReferenceKernel::Buffers& b) {
  double solution_sum = 0.0;
  double a[kDim][kDim + 1];
  for (size_t s = 0; s < kSolves; ++s) {
    for (int r = 0; r < kDim; ++r) {
      for (int c = 0; c <= kDim; ++c) {
        const size_t at = (s * 64 + static_cast<size_t>(r * 8 + c)) % kRows;
        a[r][c] = b.outcome[at] * 1e-3 + (r == c ? 4.0 : 0.0);
      }
    }
    for (int p = 0; p < kDim; ++p) {
      for (int r = p + 1; r < kDim; ++r) {
        const double f = a[r][p] / a[p][p];
        for (int c = p; c <= kDim; ++c) a[r][c] -= f * a[p][c];
      }
    }
    for (int r = kDim - 1; r >= 0; --r) {
      double x = a[r][kDim];
      for (int c = r + 1; c < kDim; ++c) x -= a[r][c] * a[c][kDim];
      a[r][kDim] = x / a[r][r];
      solution_sum += a[r][kDim];
    }
  }
  return Bits(solution_sum);
}

}  // namespace

ReferenceKernel::ReferenceKernel(size_t threads)
    : buffers_(threads == 0 ? 1 : threads) {
  for (Buffers& b : buffers_) {
    b.cells.resize(kRows);
    b.outcome.resize(kRows);
    b.bitmaps.resize(kBitmaps * kBitmapWords);
    uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (size_t i = 0; i < kRows; ++i) {
      state = Mix(state + 0x9e3779b97f4a7c15ULL);
      b.cells[i] = static_cast<uint16_t>(state % kCells);
      b.outcome[i] = static_cast<double>(state >> 44);  // < 2^20
    }
    for (uint64_t& word : b.bitmaps) {
      state = Mix(state + 0x9e3779b97f4a7c15ULL);
      word = state;
    }
  }
}

double ReferenceKernel::Time(uint64_t* checksum) {
  const size_t threads = buffers_.size();
  std::vector<uint64_t> results(threads, 0);
  auto body = [this, &results](size_t t) {
    const Buffers& b = buffers_[t];
    results[t] = Mix(Accumulate(b) ^ Mix(AndCounts(b) ^ Mix(Solves(b))));
  };
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> workers;
    workers.reserve(threads - 1);
    for (size_t t = 1; t < threads; ++t) workers.emplace_back(body, t);
    body(0);
    for (std::thread& w : workers) w.join();
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  uint64_t combined = 0;
  for (const uint64_t r : results) combined = Mix(combined ^ r);
  *checksum = combined;
  return seconds;
}

}  // namespace perfbench
