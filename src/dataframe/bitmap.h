// Bitmap: fixed-size bitset over row indices. Pattern coverage, protected
// group membership, and ruleset coverage are all row selections; set
// algebra on bitmaps is the workhorse of the selection algorithms.
//
// The whole-bitmap operations check operand sizes in every build type
// (FAIRCAP_CHECK, O(1) per call): they walk `other`'s words over *this*'s
// word count, so a mismatched bitmap would otherwise be a silent
// out-of-bounds read. The per-bit Set/Get/Clear bounds are debug asserts.

#ifndef FAIRCAP_DATAFRAME_BITMAP_H_
#define FAIRCAP_DATAFRAME_BITMAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace faircap {

/// Fixed-length bitset with word-level set algebra.
class Bitmap {
 public:
  Bitmap() : num_bits_(0) {}

  /// Creates `num_bits` bits, all clear (or all set).
  explicit Bitmap(size_t num_bits, bool value = false);

  size_t size() const { return num_bits_; }

  void Set(size_t i);
  void Clear(size_t i);
  bool Get(size_t i) const;
  bool operator[](size_t i) const { return Get(i); }

  /// Grows (or shrinks) to `new_bits`. New bits are clear; on growth the
  /// existing bits are untouched (the padding past the old size() is
  /// already zero, so whole-word growth is a plain vector resize). This is
  /// the append-path primitive: a resident mask extends to cover delta
  /// rows, then only the new tail words are scanned.
  void Resize(size_t new_bits);

  /// Number of set bits.
  size_t Count() const;

  /// Fused `(*this & other).Count()` without materializing the
  /// intersection — the workhorse of coverage/support counting, where only
  /// the cardinality of an overlap is needed. Sizes must match.
  size_t AndCount(const Bitmap& other) const;

  /// Fused `(copy of *this).AndNot(other).Count()`: set bits of `*this`
  /// not present in `other`. Sizes must match.
  size_t AndNotCount(const Bitmap& other) const;

  bool AllZero() const { return Count() == 0; }

  /// In-place intersection / union / difference with `other`.
  /// Sizes must match.
  Bitmap& operator&=(const Bitmap& other);
  Bitmap& operator|=(const Bitmap& other);
  Bitmap& AndNot(const Bitmap& other);

  Bitmap operator&(const Bitmap& other) const;
  Bitmap operator|(const Bitmap& other) const;
  /// Complement within [0, size).
  Bitmap operator~() const;

  bool operator==(const Bitmap& other) const;

  /// Indices of set bits, ascending.
  std::vector<uint32_t> ToIndices() const;

  /// Calls fn(i) for each set bit in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t bits = words_[w];
      while (bits != 0) {
        const int tz = __builtin_ctzll(bits);
        fn(w * 64 + static_cast<size_t>(tz));
        bits &= bits - 1;
      }
    }
  }

  /// Raw word storage (bit i of word w is row w*64+i). Padding bits past
  /// size() are always zero. The word-level view lets masked scans (e.g.
  /// the sufficient-statistics engine's subgroup slicing) walk several
  /// bitmaps in lockstep, 64 rows per load, skipping empty words.
  const uint64_t* words() const { return words_.data(); }
  size_t num_words() const { return words_.size(); }

  /// Writable word storage for kernel producers (the predicate compare
  /// scans fill whole mask words at a time). Writers must keep the
  /// padding bits past size() clear.
  uint64_t* mutable_words() { return words_.data(); }

  /// Calls fn(i) for each bit set in both `*this` and `other`, ascending,
  /// without materializing the intersection. Sizes must match (checked
  /// in every build type, like the whole-bitmap operations).
  template <typename Fn>
  void ForEachAnd(const Bitmap& other, Fn&& fn) const {
    FAIRCAP_CHECK(num_bits_ == other.num_bits_);
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t bits = words_[w] & other.words_[w];
      while (bits != 0) {
        const int tz = __builtin_ctzll(bits);
        fn(w * 64 + static_cast<size_t>(tz));
        bits &= bits - 1;
      }
    }
  }

 private:
  void ClearPadding();

  size_t num_bits_;
  std::vector<uint64_t> words_;
};

}  // namespace faircap

#endif  // FAIRCAP_DATAFRAME_BITMAP_H_
