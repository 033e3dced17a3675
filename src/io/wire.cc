#include "io/wire.h"

#include <cstring>
#include <utility>

#include "ml/nn.h"

namespace sky::io::wire {

uint64_t Fnv1a64(const char* data, size_t n) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

void Writer::Fail(const std::string& message) {
  if (status_.ok()) status_ = Status::InvalidArgument(message);
}

void Writer::Raw(const void* data, size_t n) {
  if (n > 0) out_->append(static_cast<const char*>(data), n);
}

void Writer::String(const std::string& s) {
  U64(s.size());
  Raw(s.data(), s.size());
}

void Writer::StatusField(const Status& s) {
  U32(static_cast<uint32_t>(s.code()));
  String(s.message());
}

void Writer::U64Vec(const std::vector<size_t>& v) {
  U64(v.size());
  for (size_t x : v) U64(x);
}

void Writer::F64Vec(const std::vector<double>& v) {
  U64(v.size());
  Raw(v.data(), v.size() * sizeof(double));
}

void Writer::F64Rows(const std::vector<std::vector<double>>& rows) {
  const size_t cols = rows.empty() ? 0 : rows[0].size();
  U64(rows.size());
  U64(cols);
  for (const std::vector<double>& row : rows) {
    if (row.size() != cols) return Fail("ragged rows are not serializable");
    Raw(row.data(), cols * sizeof(double));
  }
}

void Writer::Matrix(const ml::Matrix& m) {
  U64(m.rows());
  U64(m.cols());
  Raw(m.data().data(), m.data().size() * sizeof(double));
}

void Cursor::Record(Status s) {
  if (status_.ok()) status_ = std::move(s);
}

void Cursor::Fail(const std::string& message) {
  Record(Status::InvalidArgument(message));
}

void Cursor::Raw(void* out, size_t n) {
  if (!ok()) return;
  if (n > remaining()) return Fail("serialized data truncated mid-field");
  if (n > 0) std::memcpy(out, data_ + pos_, n);
  pos_ += n;
}

void Cursor::Skip(size_t n) {
  if (!ok()) return;
  if (n > remaining()) return Fail("serialized data truncated mid-chunk");
  pos_ += n;
}

void Cursor::Bool(bool& v) {
  uint8_t b = 0;
  U8(b);
  if (!ok()) return;
  if (b > 1) return Fail("invalid boolean flag in serialized data");
  v = b != 0;
}

void Cursor::Id(uint32_t id, uint32_t max_read, const char* refusal) {
  uint32_t read = 0;
  U32(read);
  if (ok() && (read < id || read > max_read)) Fail(refusal);
}

void Cursor::Count(uint64_t& n, size_t elem_bytes) {
  uint64_t count = 0;
  U64(count);
  if (!ok()) return;
  if (elem_bytes > 0 && count > remaining() / elem_bytes) {
    return Fail("serialized data declares impossible count");
  }
  n = count;
}

void Cursor::String(std::string& s) {
  uint64_t n = 0;
  Count(n, 1);
  if (!ok()) return;
  s.resize(n);
  Raw(s.data(), n);
}

void Cursor::StatusField(Status& s) {
  uint32_t code = 0;
  std::string message;
  U32(code);
  if (ok() && code > static_cast<uint32_t>(StatusCode::kInternal)) {
    return Fail("invalid status code in serialized data");
  }
  String(message);
  if (ok()) s = Status(static_cast<StatusCode>(code), std::move(message));
}

void Cursor::U64Vec(std::vector<size_t>& v) {
  Seq(v, sizeof(uint64_t), [this](size_t& x) { U64(x); });
}

void Cursor::F64Vec(std::vector<double>& v) {
  uint64_t n = 0;
  Count(n, sizeof(double));
  if (!ok()) return;
  v.resize(n);
  Raw(v.data(), n * sizeof(double));
}

void Cursor::F64Shape(uint64_t& rows, uint64_t& cols) {
  U64(rows);
  U64(cols);
  if (!ok()) return;
  // Guard the multiplication itself, then the row count — and bound rows by
  // the remaining payload even for zero-width rows, so no crafted header
  // can request an unbounded allocation.
  if (cols > remaining() / sizeof(double)) {
    return Fail("serialized data declares impossible count");
  }
  const uint64_t row_bytes = cols * sizeof(double);
  if (row_bytes > 0 ? rows > remaining() / row_bytes : rows > remaining()) {
    return Fail("serialized data declares impossible count");
  }
}

void Cursor::F64Rows(std::vector<std::vector<double>>& rows) {
  uint64_t k = 0, cols = 0;
  F64Shape(k, cols);
  if (!ok()) return;
  rows.assign(k, std::vector<double>(cols));
  for (std::vector<double>& row : rows) Raw(row.data(), cols * sizeof(double));
}

void Cursor::Matrix(ml::Matrix& m) {
  uint64_t rows = 0, cols = 0;
  F64Shape(rows, cols);
  if (!ok()) return;
  m = ml::Matrix(rows, cols, 0.0);
  Raw(m.data().data(), m.data().size() * sizeof(double));
}

void Cursor::ExpectEnd(const char* what) {
  if (ok() && remaining() != 0) Fail(std::string(what) + " has trailing bytes");
}

void PutU32(std::string* out, uint32_t v) { Writer(out).U32(v); }

namespace {

/// Written as a native u32; a reader on a machine with different endianness
/// sees a scrambled value and rejects the file instead of mis-parsing it.
constexpr uint32_t kEndianMarker = 0x01020304u;
constexpr size_t kHeaderBytes = 16;  // magic, version, endianness marker
constexpr size_t kChunkHeadBytes = 12;  // tag, u64 payload size
constexpr char kChunkChecksum[4] = {'C', 'S', 'U', 'M'};
// The FCST payload names the forecaster's loss and output activation by
// ids the format fixed: 1 is cross-entropy, 2 is softmax. The forecaster
// has no other, so the reader refuses any other id.
constexpr uint32_t kCrossEntropyLossId = 1;
constexpr uint32_t kSoftmaxActivationId = 2;
// The payload also keeps a slot for the trainer that fit the network: 0
// (batched) or 1 (the per-sample trainer libsky no longer has). Nothing
// reads it, so the writer puts 0 and the reader accepts either.
constexpr uint32_t kMaxTrainerId = 1;

}  // namespace

void BeginContainer(const ContainerFormat& format, std::string* out) {
  out->clear();
  Writer w(out);
  w.Raw(format.magic, 8);
  w.U32(format.version);
  w.U32(kEndianMarker);
}

void PutChunk(std::string* out, const char tag[4], const std::string& payload) {
  Writer w(out);
  w.Raw(tag, 4);
  w.String(payload);
}

void EndContainer(std::string* out) {
  std::string checksum;
  Writer(&checksum).U64(Fnv1a64(out->data(), out->size()));
  PutChunk(out, kChunkChecksum, checksum);
}

bool Chunk::Is(const char expected[4]) const {
  return std::memcmp(tag, expected, 4) == 0;
}

Result<std::vector<Chunk>> ReadContainer(const std::string& bytes,
                                         const ContainerFormat& format) {
  const std::string what = format.what;
  if (bytes.size() < kHeaderBytes) {
    return Status::InvalidArgument(what + " truncated mid-header");
  }
  Cursor c(bytes.data(), bytes.size());
  char magic[8];
  uint32_t version = 0, endian = 0;
  c.Raw(magic, sizeof(magic));
  c.U32(version);
  c.U32(endian);
  if (std::memcmp(magic, format.magic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("not a Skyscraper " + what +
                                   " (bad magic)");
  }
  if (version != format.version) {
    return Status::InvalidArgument(
        "unsupported " + what + " version " + std::to_string(version) +
        " (this build reads version " + std::to_string(format.version) + ")");
  }
  if (endian != kEndianMarker) {
    return Status::InvalidArgument(what + " written with different byte order");
  }

  // Every read below is preceded by a length check, so none can fail.
  std::vector<Chunk> chunks;
  while (c.remaining() > 0) {
    const char* tag = bytes.data() + c.pos();
    uint64_t size = 0;
    if (c.remaining() < kChunkHeadBytes) {
      return Status::InvalidArgument(what + " truncated mid-chunk");
    }
    c.Skip(4);
    c.U64(size);
    if (size > c.remaining()) {
      return Status::InvalidArgument(what + " truncated mid-chunk");
    }
    if (std::memcmp(tag, kChunkChecksum, 4) == 0) {
      // The trailer covers every byte before it and ends the file.
      uint64_t stored = 0;
      if (size != sizeof(stored) || c.remaining() != size) {
        return Status::InvalidArgument("malformed " + what +
                                       " checksum trailer");
      }
      c.U64(stored);
      if (stored !=
          Fnv1a64(bytes.data(), static_cast<size_t>(tag - bytes.data()))) {
        return Status::InvalidArgument(what + " checksum mismatch (corrupted)");
      }
      return chunks;
    }
    chunks.push_back(Chunk{tag, Cursor(bytes.data() + c.pos(), size)});
    c.Skip(size);
  }
  return Status::InvalidArgument(what + " missing checksum trailer");
}

template <class Io, class F>
void TransferForecaster(Io& io, F& forecaster) {
  bool present = forecaster.has_value();
  io.Bool(present);
  if (!present) {
    if constexpr (Io::kReads) forecaster.reset();
    return;
  }
  // The forecaster's parts: copied out of it to write, filled and then
  // reassembled by Forecaster::FromParts to read.
  core::ForecasterOptions o;
  uint64_t num_categories = 0;
  ml::TrainReport report;
  ml::NetSnapshot net;
  if constexpr (!Io::kReads) {
    o = forecaster->options();
    num_categories = forecaster->num_categories();
    report = forecaster->train_report();
    net = forecaster->SnapshotNet();
  }
  io.F64(o.input_span);
  io.U64(o.input_splits);
  io.F64(o.planned_interval);
  io.F64(o.training_stride);
  io.U64(o.seed);
  ml::TrainOptions& t = o.train_options;
  io.U64(t.epochs);
  io.U64(t.batch_size);
  io.F64(t.learning_rate);
  io.F64(t.validation_split);
  io.Id(kCrossEntropyLossId, kCrossEntropyLossId,
        "forecaster payload loss id must be 1 (cross-entropy)");
  io.U64(t.shuffle_seed);
  io.Bool(t.keep_best_validation_weights);
  io.Id(0, kMaxTrainerId, "forecaster payload trainer id must be 0 or 1");
  io.U64(t.grad_chunk_rows);

  io.U64(num_categories);

  io.F64Vec(report.train_loss_per_epoch);
  io.F64Vec(report.val_loss_per_epoch);
  io.F64(report.best_val_loss);
  io.U64(report.best_epoch);

  io.U64(net.input_dim);
  io.U64Vec(net.hidden);
  io.U64(net.output_dim);
  io.Id(kSoftmaxActivationId, kSoftmaxActivationId,
        "forecaster payload activation id must be 2 (softmax)");
  io.U64(net.adam_steps);
  io.F64Vec(net.params);
  io.F64Vec(net.adam_m);
  io.F64Vec(net.adam_v);

  if constexpr (Io::kReads) {
    if (!io.ok()) return;
    Result<core::Forecaster> assembled = core::Forecaster::FromParts(
        net, o, num_categories, std::move(report));
    if (!assembled.ok()) return io.Record(assembled.status());
    forecaster.emplace(std::move(*assembled));
  }
}

template void TransferForecaster(Writer&, const std::optional<core::Forecaster>&);
template void TransferForecaster(Cursor&, std::optional<core::Forecaster>&);

}  // namespace sky::io::wire
