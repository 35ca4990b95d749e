#include "dataframe/bitmap.h"

#include <cassert>

#include "util/simd/simd.h"

namespace faircap {

Bitmap::Bitmap(size_t num_bits, bool value)
    : num_bits_(num_bits),
      words_((num_bits + 63) / 64, value ? ~0ULL : 0ULL) {
  if (value) ClearPadding();
}

void Bitmap::Set(size_t i) {
  assert(i < num_bits_);
  words_[i / 64] |= (1ULL << (i % 64));
}

void Bitmap::Clear(size_t i) {
  assert(i < num_bits_);
  words_[i / 64] &= ~(1ULL << (i % 64));
}

bool Bitmap::Get(size_t i) const {
  assert(i < num_bits_);
  return (words_[i / 64] >> (i % 64)) & 1ULL;
}

void Bitmap::Resize(size_t new_bits) {
  words_.resize((new_bits + 63) / 64, 0ULL);
  num_bits_ = new_bits;
  // Shrinking may leave set bits past the new size in the final word.
  ClearPadding();
}

size_t Bitmap::Count() const {
  return simd::ActiveKernels().popcount(words_.data(), words_.size());
}

size_t Bitmap::AndCount(const Bitmap& other) const {
  FAIRCAP_CHECK(num_bits_ == other.num_bits_);
  return simd::ActiveKernels().and_count(words_.data(), other.words_.data(),
                                         words_.size());
}

size_t Bitmap::AndNotCount(const Bitmap& other) const {
  FAIRCAP_CHECK(num_bits_ == other.num_bits_);
  return simd::ActiveKernels().andnot_count(words_.data(), other.words_.data(),
                                            words_.size());
}

Bitmap& Bitmap::operator&=(const Bitmap& other) {
  FAIRCAP_CHECK(num_bits_ == other.num_bits_);
  simd::ActiveKernels().and_inplace(words_.data(), other.words_.data(),
                                    words_.size());
  return *this;
}

Bitmap& Bitmap::operator|=(const Bitmap& other) {
  FAIRCAP_CHECK(num_bits_ == other.num_bits_);
  simd::ActiveKernels().or_inplace(words_.data(), other.words_.data(),
                                   words_.size());
  return *this;
}

Bitmap& Bitmap::AndNot(const Bitmap& other) {
  FAIRCAP_CHECK(num_bits_ == other.num_bits_);
  simd::ActiveKernels().andnot_inplace(words_.data(), other.words_.data(),
                                       words_.size());
  return *this;
}

Bitmap Bitmap::operator&(const Bitmap& other) const {
  Bitmap out = *this;
  out &= other;
  return out;
}

Bitmap Bitmap::operator|(const Bitmap& other) const {
  Bitmap out = *this;
  out |= other;
  return out;
}

Bitmap Bitmap::operator~() const {
  Bitmap out = *this;
  for (auto& w : out.words_) w = ~w;
  out.ClearPadding();
  return out;
}

bool Bitmap::operator==(const Bitmap& other) const {
  return num_bits_ == other.num_bits_ && words_ == other.words_;
}

std::vector<uint32_t> Bitmap::ToIndices() const {
  std::vector<uint32_t> out;
  out.reserve(Count());
  ForEach([&out](size_t i) { out.push_back(static_cast<uint32_t>(i)); });
  return out;
}

void Bitmap::ClearPadding() {
  const size_t tail = num_bits_ % 64;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (1ULL << tail) - 1;
  }
}

}  // namespace faircap
