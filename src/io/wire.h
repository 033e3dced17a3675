#ifndef SKYSCRAPER_IO_WIRE_H_
#define SKYSCRAPER_IO_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/category_sequence.h"
#include "core/forecaster.h"
#include "ml/matrix.h"
#include "util/result.h"
#include "util/status.h"

namespace sky::io::wire {

/// Shared primitives of every Skyscraper on-disk format (model files, fleet
/// checkpoints and serve checkpoints) and of the serve protocol's frames:
/// the symmetric field codec (Writer and the bounds-checked Cursor), the
/// FNV-1a integrity hash, the checksummed chunk container, and the
/// category sequence and forecaster payloads. The container layout lives in docs/model_format.md
/// ("Container"); each file format keeps only its own magic, version, and
/// chunk table on top of it.

/// FNV-1a 64-bit over a byte range — cheap, dependency-free integrity check
/// (this guards against truncation and bit rot, not adversaries).
uint64_t Fnv1a64(const char* data, size_t n);

// --- Symmetric codec -------------------------------------------------------
//
// A record's layout is written once, as a transfer function
//
//   template <class Io, class T> void TransferFoo(Io& io, T& foo);
//
// that makes one Io call per field, in wire order. Run with a Writer (T
// const) it appends the record; run with a Cursor (T mutable) it reads the
// record back, so a reader cannot drift from its writer. What a reader
// checks about the values it read sits in an `if constexpr (Io::kReads)`
// block at its point in the field order. Both keep their first error in
// status(); after it a Cursor reads nothing more, and what either has
// produced is to be discarded. Integers are in host byte order (the
// container's endianness marker refuses a foreign one) and doubles raw
// IEEE-754, so round trips are bitwise.

/// Appends fields to a byte string.
class Writer {
 public:
  static constexpr bool kReads = false;

  explicit Writer(std::string* out) : out_(out) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  /// Records kInvalidArgument(message) unless an error is already kept.
  void Fail(const std::string& message);

  void Raw(const void* data, size_t n);
  void U8(uint8_t v) { Raw(&v, 1); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  /// An enum stored as a u8 / u32; the reader refuses a value past `max`.
  template <class E>
  void Enum8(E v, E /*max*/, const char* /*refusal*/) {
    U8(static_cast<uint8_t>(v));
  }
  template <class E>
  void Enum32(E v, E /*max*/, const char* /*refusal*/) {
    U32(static_cast<uint32_t>(v));
  }
  /// A u32 id the format fixed: written as `id`, read as any value in
  /// [id, max_read] (older writers may have put a value up to max_read).
  void Id(uint32_t id, uint32_t /*max_read*/, const char* /*refusal*/) {
    U32(id);
  }
  /// A u64 element count; the reader refuses one whose elements, at
  /// `elem_bytes` each, the rest of the payload cannot hold.
  void Count(uint64_t n, size_t /*elem_bytes*/) { U64(n); }
  void String(const std::string& s);
  /// u32 status code, then the message string (empty for OK).
  void StatusField(const Status& s);
  void U64Vec(const std::vector<size_t>& v);
  void F64Vec(const std::vector<double>& v);
  /// k rows of equal width, stored as (rows, cols, row-major payload);
  /// ragged rows are an error.
  void F64Rows(const std::vector<std::vector<double>>& rows);
  /// The same layout as F64Rows.
  void Matrix(const ml::Matrix& m);
  /// A presence flag, then the value (0 when absent).
  template <class T>
  void Optional(const std::optional<T>& v) {
    Bool(v.has_value());
    if constexpr (std::is_floating_point_v<T>) {
      F64(v.value_or(0.0));
    } else {
      U64(v.value_or(0));
    }
  }
  /// A count-prefixed sequence: the count (elements of at least
  /// `elem_bytes` each), then `each(element)` in order.
  template <class T, class Each>
  void Seq(const std::vector<T>& v, size_t elem_bytes, Each&& each) {
    Count(v.size(), elem_bytes);
    for (const T& e : v) each(e);
  }

 private:
  std::string* out_;
  Status status_;
};

/// Reads fields from a byte range: the same calls as Writer, each taking
/// its field by reference. Every read checks the remaining length first,
/// and every count is bounded by what the payload can still hold before
/// anything is allocated, so truncated or hostile input surfaces as a
/// kInvalidArgument status instead of an out-of-bounds read or an
/// unbounded allocation.
class Cursor {
 public:
  static constexpr bool kReads = true;

  Cursor(const char* data, size_t size) : data_(data), end_(size) {}

  size_t remaining() const { return end_ - pos_; }
  size_t pos() const { return pos_; }
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  /// Keeps `s` if it is an error and no error is kept yet.
  void Record(Status s);
  /// Record(kInvalidArgument(message)).
  void Fail(const std::string& message);

  void Raw(void* out, size_t n);
  void Skip(size_t n);
  void U8(uint8_t& v) { Raw(&v, 1); }
  void U32(uint32_t& v) { Raw(&v, sizeof(v)); }
  /// Reads a u64 into any 64-bit unsigned field (size_t included).
  template <class T>
  void U64(T& v) {
    static_assert(std::is_unsigned_v<T> && sizeof(T) == sizeof(uint64_t));
    Raw(&v, sizeof(v));
  }
  void I64(int64_t& v) { Raw(&v, sizeof(v)); }
  void F64(double& v) { Raw(&v, sizeof(v)); }
  /// Anything but 0/1 is corruption, not a flag.
  void Bool(bool& v);
  template <class E>
  void Enum8(E& v, E max, const char* refusal) {
    uint8_t raw = 0;
    U8(raw);
    SetEnum(raw, max, refusal, &v);
  }
  template <class E>
  void Enum32(E& v, E max, const char* refusal) {
    uint32_t raw = 0;
    U32(raw);
    SetEnum(raw, max, refusal, &v);
  }
  void Id(uint32_t id, uint32_t max_read, const char* refusal);
  void Count(uint64_t& n, size_t elem_bytes);
  void String(std::string& s);
  /// A status code past kInternal is corruption.
  void StatusField(Status& s);
  void U64Vec(std::vector<size_t>& v);
  void F64Vec(std::vector<double>& v);
  void F64Rows(std::vector<std::vector<double>>& rows);
  void Matrix(ml::Matrix& m);
  template <class T>
  void Optional(std::optional<T>& v) {
    bool has = false;
    T x{};
    Bool(has);
    if constexpr (std::is_floating_point_v<T>) {
      F64(x);
    } else {
      U64(x);
    }
    if (!ok()) return;
    if (has) {
      v = x;
    } else {
      v.reset();
    }
  }
  template <class T, class Each>
  void Seq(std::vector<T>& v, size_t elem_bytes, Each&& each) {
    uint64_t n = 0;
    Count(n, elem_bytes);
    if (!ok()) return;
    v.resize(n);
    for (T& e : v) {
      each(e);
      if (!ok()) return;
    }
  }

  /// Fails with "<what> has trailing bytes" unless fully consumed.
  void ExpectEnd(const char* what);

 private:
  /// Reads the (rows, cols) header of a row-major f64 matrix and refuses a
  /// shape the remaining payload cannot hold, without forming any product
  /// that could wrap or divide by zero.
  void F64Shape(uint64_t& rows, uint64_t& cols);
  template <class E, class Int>
  void SetEnum(Int raw, E max, const char* refusal, E* v) {
    if (!ok()) return;
    if (raw > static_cast<Int>(max)) return Fail(refusal);
    *v = static_cast<E>(raw);
  }

  const char* data_;
  size_t pos_ = 0;
  size_t end_;
  Status status_;
};

/// Single-field writer for hand-built payloads.
void PutU32(std::string* out, uint32_t v);

// --- Checksummed chunk container -------------------------------------------

/// One file format on top of the container: its 8-byte ASCII magic, the
/// only version this build writes and reads, and `what`, the format's name
/// in every error ("model file", "checkpoint file", "serve checkpoint").
struct ContainerFormat {
  const char* magic;
  uint32_t version;
  const char* what;
};

/// Clears `out` and writes the 16-byte header: magic, version, endianness
/// marker.
void BeginContainer(const ContainerFormat& format, std::string* out);

/// Appends one tagged chunk: 4-byte tag, u64 payload size, payload.
void PutChunk(std::string* out, const char tag[4], const std::string& payload);

/// Appends the trailing CSUM chunk: FNV-1a-64 over every byte before it.
void EndContainer(std::string* out);

/// One chunk of a verified container: a view of its tag and its payload,
/// valid as long as the bytes passed to ReadContainer.
struct Chunk {
  const char* tag;
  Cursor payload;

  bool Is(const char expected[4]) const;
};

/// Checks the magic, the version, the endianness marker, the chunk framing
/// and the CSUM trailer — the whole file is verified before any chunk is
/// returned — then returns the chunks before CSUM in file order. Which
/// chunks are required, in what order and how often is the caller's rule.
/// Every failure is kInvalidArgument and names `format.what`.
Result<std::vector<Chunk>> ReadContainer(const std::string& bytes,
                                         const ContainerFormat& format);

// --- Category sequence payload ---------------------------------------------

/// A core::CategorySequence packed for `num_categories` categories: the u64
/// code count, then its words as a u64 word count and the u64 words. The
/// model's TSEQ chunk and the engine state's ring share it. The reader
/// refuses a word count other than the one the codes take at the width
/// `num_categories` gives, a set bit past the last code, and a code at or
/// above `num_categories`, naming the sequence as `what`.
template <class Io, class Seq>
void TransferCategorySequence(Io& io, Seq& seq, size_t num_categories,
                              const char* what) {
  uint64_t codes = seq.size();
  uint64_t n_words = seq.words().size();
  io.U64(codes);
  io.Count(n_words, sizeof(uint64_t));
  if constexpr (Io::kReads) {
    if (!io.ok()) return;
    std::vector<uint64_t> words(n_words);
    io.Raw(words.data(), n_words * sizeof(uint64_t));
    if (!io.ok()) return;
    Result<core::CategorySequence> read = core::CategorySequence::FromWords(
        num_categories, codes, std::move(words));
    if (!read.ok()) return io.Fail(what + (": " + read.status().message()));
    seq = std::move(read).value();
  } else {
    io.Raw(seq.words().data(), n_words * sizeof(uint64_t));
  }
}

// --- Forecaster payload ----------------------------------------------------

/// The forecaster payload (presence flag, options, train report, net
/// snapshot incl. Adam moments), shared between the model FCST chunk and
/// engine checkpoints so the two formats cannot drift; round trips are
/// bitwise (online fine-tuning resumes identically). The reader refuses a
/// loss other than cross-entropy or an output other than softmax.
template <class Io, class F>
void TransferForecaster(Io& io, F& forecaster);

}  // namespace sky::io::wire

#endif  // SKYSCRAPER_IO_WIRE_H_
