#ifndef SKYSCRAPER_CORE_CATEGORY_SEQUENCE_H_
#define SKYSCRAPER_CORE_CATEGORY_SEQUENCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/result.h"

namespace sky::core {

/// A per-segment content-category sequence stored at its information width.
/// Each category is a code of width() bits, the smallest power of two that
/// holds the sequence's category count: 1 bit for at most 2 categories, 2
/// for at most 4, 4 for at most 16, 8 above that. Codes are packed
/// 64 / width() to a 64-bit word, code i in word i / (64 / width()) at bit
/// (i % (64 / width())) * width(), so no code straddles a word; the bits
/// past the last code are zero.
///
/// The forecaster reads a category history only as histograms over windows
/// (§3.3, Appendix H), so besides Get the one read is CountInto, which
/// counts every category over a range a word at a time.
class CategorySequence {
 public:
  /// Code width in bits for `num_categories` categories.
  static unsigned WidthFor(size_t num_categories);

  /// An empty sequence of 1-bit codes.
  CategorySequence() = default;
  /// `size` codes of category 0, packed for `num_categories` categories.
  CategorySequence(size_t num_categories, size_t size);

  /// The sequence of `size` codes packed for `num_categories` categories in
  /// `words`. kInvalidArgument for a word count other than the one `size`
  /// codes take, a set bit past the last code, or a code at or above
  /// `num_categories`.
  static Result<CategorySequence> FromWords(size_t num_categories,
                                            uint64_t size,
                                            std::vector<uint64_t> words);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  unsigned width() const { return 1u << log_width_; }
  const std::vector<uint64_t>& words() const { return words_; }

  uint8_t Get(size_t i) const {
    return static_cast<uint8_t>((words_[i >> WordShift()] >> BitOf(i)) &
                                CodeMask());
  }
  /// Writes `code`, which must be below 2^width().
  void Set(size_t i, uint8_t code) {
    uint64_t& word = words_[i >> WordShift()];
    const unsigned bit = BitOf(i);
    word = (word & ~(CodeMask() << bit)) | (uint64_t{code} << bit);
  }

  /// Adds to counts[c], for every category c < num_categories, how many
  /// codes in [begin, begin + n) equal c; a code at or above num_categories
  /// is counted nowhere. Reads each word once and masks the partial words
  /// at both ends. Requires begin + n <= size(). Counts are integers, so
  /// the result is bitwise what a scan of the codes gives.
  void CountInto(size_t begin, size_t n, size_t num_categories,
                 uint32_t* counts) const;

  /// True when every code in [begin, begin + n) is below
  /// `num_categories`, checked a word at a time through CountInto.
  bool AllBelow(size_t begin, size_t n, size_t num_categories) const;

  friend bool operator==(const CategorySequence& a,
                         const CategorySequence& b) {
    return a.log_width_ == b.log_width_ && a.size_ == b.size_ &&
           a.words_ == b.words_;
  }
  friend bool operator!=(const CategorySequence& a,
                         const CategorySequence& b) {
    return !(a == b);
  }

 private:
  /// log2 of the codes per word.
  unsigned WordShift() const { return 6 - log_width_; }
  unsigned BitOf(size_t i) const {
    return static_cast<unsigned>(i & ((size_t{1} << WordShift()) - 1))
           << log_width_;
  }
  uint64_t CodeMask() const { return (uint64_t{1} << width()) - 1; }

  unsigned log_width_ = 0;  ///< log2 of width(): 0, 1, 2 or 3
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace sky::core

#endif  // SKYSCRAPER_CORE_CATEGORY_SEQUENCE_H_
