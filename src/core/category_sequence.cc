#include "core/category_sequence.h"

#include <algorithm>
#include <string>

namespace sky::core {

namespace {

/// The lowest bit of every code of a word, by log2 of the width.
constexpr uint64_t kLowBits[4] = {~uint64_t{0}, 0x5555555555555555ull,
                                  0x1111111111111111ull,
                                  0x0101010101010101ull};

unsigned LogWidthFor(size_t num_categories) {
  const unsigned width = CategorySequence::WidthFor(num_categories);
  return width == 1 ? 0 : width == 2 ? 1 : width == 4 ? 2 : 3;
}

/// Words that `size` codes of `width` bits take.
uint64_t WordsFor(uint64_t size, unsigned width) {
  const uint64_t per_word = 64 / width;
  return size / per_word + (size % per_word != 0 ? 1 : 0);
}

int PopCount(uint64_t x) { return __builtin_popcountll(x); }

}  // namespace

unsigned CategorySequence::WidthFor(size_t num_categories) {
  return num_categories <= 2 ? 1 : num_categories <= 4 ? 2
                               : num_categories <= 16 ? 4
                                                      : 8;
}

CategorySequence::CategorySequence(size_t num_categories, size_t size)
    : log_width_(LogWidthFor(num_categories)),
      size_(size),
      words_(WordsFor(size, width()), 0) {}

Result<CategorySequence> CategorySequence::FromWords(
    size_t num_categories, uint64_t size, std::vector<uint64_t> words) {
  CategorySequence seq;
  seq.log_width_ = LogWidthFor(num_categories);
  if (words.size() != WordsFor(size, seq.width())) {
    return Status::InvalidArgument(
        "category sequence of " + std::to_string(size) + " codes holds " +
        std::to_string(words.size()) + " words");
  }
  const unsigned tail_bits =
      static_cast<unsigned>(size % (64 / seq.width())) * seq.width();
  if (tail_bits != 0 && (words.back() >> tail_bits) != 0) {
    return Status::InvalidArgument(
        "category sequence has a bit set past its last code");
  }
  seq.size_ = static_cast<size_t>(size);
  seq.words_ = std::move(words);
  if (!seq.AllBelow(0, seq.size_, num_categories)) {
    return Status::InvalidArgument(
        "category sequence holds a code at or above its category count");
  }
  return seq;
}

bool CategorySequence::AllBelow(size_t begin, size_t n,
                                size_t num_categories) const {
  if (num_categories >= (size_t{1} << width())) return true;
  // The kernel counts exactly the codes below num_categories; a chunk
  // keeps every count within uint32.
  constexpr size_t kChunk = size_t{1} << 30;
  std::vector<uint32_t> counts(num_categories);
  for (size_t done = 0; done < n; done += kChunk) {
    const size_t len = std::min(kChunk, n - done);
    std::fill(counts.begin(), counts.end(), 0);
    CountInto(begin + done, len, num_categories, counts.data());
    uint64_t below = 0;
    for (uint32_t c : counts) below += c;
    if (below != len) return false;
  }
  return true;
}

void CategorySequence::CountInto(size_t begin, size_t n,
                                 size_t num_categories,
                                 uint32_t* counts) const {
  if (n == 0) return;
  const unsigned width = this->width();
  const uint64_t lows = kLowBits[log_width_];
  const size_t num_c = std::min(num_categories, size_t{1} << width);
  const size_t end = begin + n;
  const size_t first = begin >> WordShift();
  const size_t last = (end - 1) >> WordShift();
  for (size_t w = first; w <= last; ++w) {
    // The low bit of every code in range: the partial words at both ends
    // drop the codes outside it.
    uint64_t in_range = lows;
    if (w == first) in_range &= ~uint64_t{0} << BitOf(begin);
    if (w == last) {
      const unsigned stop = BitOf(end - 1) + width;
      if (stop < 64) in_range &= (uint64_t{1} << stop) - 1;
    }
    const int codes = PopCount(in_range);
    const uint64_t word = words_[w];
    for (size_t c = 0; c < num_c; ++c) {
      // A code equals c exactly when its bits XOR c's are all zero: fold
      // each code's bits into its low bit and count the codes left at 0.
      uint64_t diff = word ^ (lows * c);
      for (unsigned s = 1; s < width; s <<= 1) diff |= diff >> s;
      counts[c] += static_cast<uint32_t>(codes - PopCount(diff & in_range));
    }
  }
}

}  // namespace sky::core
