#ifndef SKYSCRAPER_IO_WIRE_H_
#define SKYSCRAPER_IO_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/forecaster.h"
#include "util/result.h"
#include "util/status.h"

namespace sky::io::wire {

/// Shared primitives of every Skyscraper on-disk format (model files, fleet
/// checkpoints and serve checkpoints): raw little writers, the
/// bounds-checked Cursor reader, the FNV-1a integrity hash, the checksummed
/// chunk container, and the forecaster payload. The container layout lives
/// in docs/model_format.md ("Container"); each file format keeps only its
/// own magic, version, and chunk table on top of it.

/// FNV-1a 64-bit over a byte range — cheap, dependency-free integrity check
/// (this guards against truncation and bit rot, not adversaries).
uint64_t Fnv1a64(const char* data, size_t n);

// --- Little writer ---------------------------------------------------------

void PutRaw(std::string* out, const void* data, size_t n);
void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutI64(std::string* out, int64_t v);
void PutF64(std::string* out, double v);
void PutBool(std::string* out, bool v);
void PutU64Vec(std::string* out, const std::vector<size_t>& v);
void PutF64Vec(std::string* out, const std::vector<double>& v);

/// k rows of equal width, stored as (rows, cols, row-major payload).
Status PutF64Rows(std::string* out,
                  const std::vector<std::vector<double>>& rows);

void PutString(std::string* out, const std::string& s);

/// u32 status code, then the message string (empty for OK).
void PutStatus(std::string* out, const Status& s);

// --- Bounds-checked reader -------------------------------------------------

/// Sequential reader over serialized bytes. Every accessor checks the
/// remaining length first, so truncated or corrupted input surfaces as an
/// error Status instead of an out-of-bounds read.
class Cursor {
 public:
  Cursor(const char* data, size_t size) : data_(data), end_(size) {}

  size_t remaining() const { return end_ - pos_; }
  size_t pos() const { return pos_; }

  Status Read(void* out, size_t n);
  Status Skip(size_t n);

  Status ReadU8(uint8_t* v) { return Read(v, 1); }
  Status ReadU32(uint32_t* v) { return Read(v, sizeof(*v)); }
  Status ReadU64(uint64_t* v) { return Read(v, sizeof(*v)); }
  Status ReadI64(int64_t* v);
  Status ReadF64(double* v) { return Read(v, sizeof(*v)); }

  /// Reads a PutBool byte; anything but 0/1 is corruption, not a flag.
  Status ReadBool(bool* v);

  /// Reads a u64 count that the payload must still be able to satisfy at
  /// `elem_bytes` per element — rejects absurd counts from corrupt input
  /// before any allocation is attempted.
  Status ReadCount(size_t elem_bytes, uint64_t* count);

  /// Reads the (rows, cols) header of a row-major f64 matrix and rejects a
  /// shape the remaining payload cannot hold, without forming any product
  /// that could wrap or divide by zero.
  Status ReadF64Shape(uint64_t* rows, uint64_t* cols);

  Status ReadU64Vec(std::vector<size_t>* v);
  Status ReadF64Vec(std::vector<double>* v);
  Status ReadF64Rows(std::vector<std::vector<double>>* rows);
  Status ReadString(std::string* s);

  /// Reads a PutStatus payload; a code past kInternal is corruption.
  Status ReadStatus(Status* s);

  /// kInvalidArgument ("<what> has trailing bytes") unless fully consumed.
  Status ExpectEnd(const char* what) const;

 private:
  const char* data_;
  size_t pos_ = 0;
  size_t end_;
};

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

// --- Forecaster payload ----------------------------------------------------

/// Appends a self-contained forecaster payload (presence flag, options,
/// train report, net snapshot incl. Adam moments). Shared between the model
/// FCST chunk and engine checkpoints so the two formats cannot drift; round
/// trips are bitwise (online fine-tuning resumes identically).
void AppendForecaster(const std::optional<core::Forecaster>& forecaster,
                      std::string* out);

/// Parses a payload written by AppendForecaster.
Status ParseForecaster(Cursor* c, std::optional<core::Forecaster>* out);

}  // namespace sky::io::wire

#endif  // SKYSCRAPER_IO_WIRE_H_
