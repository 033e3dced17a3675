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

void PutRaw(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}

void PutU8(std::string* out, uint8_t v) { PutRaw(out, &v, 1); }
void PutU32(std::string* out, uint32_t v) { PutRaw(out, &v, sizeof(v)); }
void PutU64(std::string* out, uint64_t v) { PutRaw(out, &v, sizeof(v)); }
void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}
void PutF64(std::string* out, double v) { PutRaw(out, &v, sizeof(v)); }
void PutBool(std::string* out, bool v) { PutU8(out, v ? 1 : 0); }

void PutU64Vec(std::string* out, const std::vector<size_t>& v) {
  PutU64(out, v.size());
  for (size_t x : v) PutU64(out, x);
}

void PutF64Vec(std::string* out, const std::vector<double>& v) {
  PutU64(out, v.size());
  if (!v.empty()) PutRaw(out, v.data(), v.size() * sizeof(double));
}

Status PutF64Rows(std::string* out,
                  const std::vector<std::vector<double>>& rows) {
  PutU64(out, rows.size());
  size_t cols = rows.empty() ? 0 : rows[0].size();
  PutU64(out, cols);
  for (const std::vector<double>& row : rows) {
    if (row.size() != cols) {
      return Status::InvalidArgument("ragged rows are not serializable");
    }
    if (!row.empty()) PutRaw(out, row.data(), row.size() * sizeof(double));
  }
  return Status::Ok();
}

void PutString(std::string* out, const std::string& s) {
  PutU64(out, s.size());
  PutRaw(out, s.data(), s.size());
}

void PutStatus(std::string* out, const Status& s) {
  PutU32(out, static_cast<uint32_t>(s.code()));
  PutString(out, s.message());
}

Status Cursor::Read(void* out, size_t n) {
  if (n > remaining()) {
    return Status::InvalidArgument("serialized data truncated mid-field");
  }
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return Status::Ok();
}

Status Cursor::Skip(size_t n) {
  if (n > remaining()) {
    return Status::InvalidArgument("serialized data truncated mid-chunk");
  }
  pos_ += n;
  return Status::Ok();
}

Status Cursor::ReadI64(int64_t* v) {
  uint64_t u = 0;
  SKY_RETURN_NOT_OK(ReadU64(&u));
  *v = static_cast<int64_t>(u);
  return Status::Ok();
}

Status Cursor::ReadBool(bool* v) {
  uint8_t b = 0;
  SKY_RETURN_NOT_OK(ReadU8(&b));
  if (b > 1) {
    return Status::InvalidArgument("invalid boolean flag in serialized data");
  }
  *v = b != 0;
  return Status::Ok();
}

Status Cursor::ReadCount(size_t elem_bytes, uint64_t* count) {
  SKY_RETURN_NOT_OK(ReadU64(count));
  if (elem_bytes > 0 && *count > remaining() / elem_bytes) {
    return Status::InvalidArgument("serialized data declares impossible count");
  }
  return Status::Ok();
}

Status Cursor::ReadU64Vec(std::vector<size_t>* v) {
  uint64_t n = 0;
  SKY_RETURN_NOT_OK(ReadCount(sizeof(uint64_t), &n));
  v->resize(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t x = 0;
    SKY_RETURN_NOT_OK(ReadU64(&x));
    (*v)[i] = x;
  }
  return Status::Ok();
}

Status Cursor::ReadF64Vec(std::vector<double>* v) {
  uint64_t n = 0;
  SKY_RETURN_NOT_OK(ReadCount(sizeof(double), &n));
  v->resize(n);
  if (n > 0) return Read(v->data(), n * sizeof(double));
  return Status::Ok();
}

Status Cursor::ReadF64Shape(uint64_t* rows, uint64_t* cols) {
  SKY_RETURN_NOT_OK(ReadU64(rows));
  SKY_RETURN_NOT_OK(ReadU64(cols));
  // Guard the multiplication itself, then the row count — and bound rows by
  // the remaining payload even for zero-width rows, so no crafted header
  // can request an unbounded allocation.
  if (*cols > remaining() / sizeof(double)) {
    return Status::InvalidArgument("serialized data declares impossible count");
  }
  uint64_t row_bytes = *cols * sizeof(double);
  if (row_bytes > 0 ? *rows > remaining() / row_bytes : *rows > remaining()) {
    return Status::InvalidArgument("serialized data declares impossible count");
  }
  return Status::Ok();
}

Status Cursor::ReadF64Rows(std::vector<std::vector<double>>* rows) {
  uint64_t k = 0, cols = 0;
  SKY_RETURN_NOT_OK(ReadF64Shape(&k, &cols));
  rows->assign(k, std::vector<double>(cols));
  for (auto& row : *rows) {
    if (cols > 0) SKY_RETURN_NOT_OK(Read(row.data(), cols * sizeof(double)));
  }
  return Status::Ok();
}

Status Cursor::ReadString(std::string* s) {
  uint64_t n = 0;
  SKY_RETURN_NOT_OK(ReadCount(1, &n));
  s->resize(n);
  if (n > 0) return Read(&(*s)[0], n);
  return Status::Ok();
}

Status Cursor::ReadStatus(Status* s) {
  uint32_t code = 0;
  std::string message;
  SKY_RETURN_NOT_OK(ReadU32(&code));
  if (code > static_cast<uint32_t>(StatusCode::kInternal)) {
    return Status::InvalidArgument("invalid status code in serialized data");
  }
  SKY_RETURN_NOT_OK(ReadString(&message));
  *s = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::Ok();
}

Status Cursor::ExpectEnd(const char* what) const {
  if (remaining() != 0) {
    return Status::InvalidArgument(std::string(what) + " has trailing bytes");
  }
  return Status::Ok();
}

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
  PutRaw(out, format.magic, 8);
  PutU32(out, format.version);
  PutU32(out, kEndianMarker);
}

void PutChunk(std::string* out, const char tag[4], const std::string& payload) {
  PutRaw(out, tag, 4);
  PutU64(out, payload.size());
  out->append(payload);
}

void EndContainer(std::string* out) {
  std::string checksum;
  PutU64(&checksum, Fnv1a64(out->data(), out->size()));
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
  SKY_RETURN_NOT_OK(c.Read(magic, sizeof(magic)));
  SKY_RETURN_NOT_OK(c.ReadU32(&version));
  SKY_RETURN_NOT_OK(c.ReadU32(&endian));
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

  std::vector<Chunk> chunks;
  while (c.remaining() > 0) {
    const char* tag = bytes.data() + c.pos();
    uint64_t size = 0;
    if (c.remaining() < kChunkHeadBytes) {
      return Status::InvalidArgument(what + " truncated mid-chunk");
    }
    SKY_RETURN_NOT_OK(c.Skip(4));
    SKY_RETURN_NOT_OK(c.ReadU64(&size));
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
      SKY_RETURN_NOT_OK(c.ReadU64(&stored));
      if (stored !=
          Fnv1a64(bytes.data(), static_cast<size_t>(tag - bytes.data()))) {
        return Status::InvalidArgument(what + " checksum mismatch (corrupted)");
      }
      return chunks;
    }
    chunks.push_back(Chunk{tag, Cursor(bytes.data() + c.pos(), size)});
    SKY_RETURN_NOT_OK(c.Skip(size));
  }
  return Status::InvalidArgument(what + " missing checksum trailer");
}

void AppendForecaster(const std::optional<core::Forecaster>& forecaster,
                      std::string* out) {
  std::string* p = out;
  PutBool(p, forecaster.has_value());
  if (!forecaster.has_value()) return;
  const core::Forecaster& f = *forecaster;

  const core::ForecasterOptions& o = f.options();
  PutF64(p, o.input_span);
  PutU64(p, o.input_splits);
  PutF64(p, o.planned_interval);
  PutF64(p, o.training_stride);
  PutU64(p, o.seed);
  const ml::TrainOptions& t = o.train_options;
  PutU64(p, t.epochs);
  PutU64(p, t.batch_size);
  PutF64(p, t.learning_rate);
  PutF64(p, t.validation_split);
  PutU32(p, kCrossEntropyLossId);
  PutU64(p, t.shuffle_seed);
  PutBool(p, t.keep_best_validation_weights);
  PutU32(p, 0);  // trainer slot
  PutU64(p, t.grad_chunk_rows);

  PutU64(p, f.num_categories());

  const ml::TrainReport& r = f.train_report();
  PutF64Vec(p, r.train_loss_per_epoch);
  PutF64Vec(p, r.val_loss_per_epoch);
  PutF64(p, r.best_val_loss);
  PutU64(p, r.best_epoch);

  ml::NetSnapshot net = f.SnapshotNet();
  PutU64(p, net.input_dim);
  PutU64Vec(p, net.hidden);
  PutU64(p, net.output_dim);
  PutU32(p, kSoftmaxActivationId);
  PutU64(p, net.adam_steps);
  PutF64Vec(p, net.params);
  PutF64Vec(p, net.adam_m);
  PutF64Vec(p, net.adam_v);
}

Status ParseForecaster(Cursor* c, std::optional<core::Forecaster>* out) {
  bool present = false;
  SKY_RETURN_NOT_OK(c->ReadBool(&present));
  if (!present) {
    out->reset();
    return Status::Ok();
  }

  core::ForecasterOptions o;
  uint64_t u = 0;
  uint32_t e = 0;
  SKY_RETURN_NOT_OK(c->ReadF64(&o.input_span));
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  o.input_splits = u;
  SKY_RETURN_NOT_OK(c->ReadF64(&o.planned_interval));
  SKY_RETURN_NOT_OK(c->ReadF64(&o.training_stride));
  SKY_RETURN_NOT_OK(c->ReadU64(&o.seed));
  ml::TrainOptions& t = o.train_options;
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  t.epochs = u;
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  t.batch_size = u;
  SKY_RETURN_NOT_OK(c->ReadF64(&t.learning_rate));
  SKY_RETURN_NOT_OK(c->ReadF64(&t.validation_split));
  SKY_RETURN_NOT_OK(c->ReadU32(&e));
  if (e != kCrossEntropyLossId) {
    return Status::InvalidArgument(
        "forecaster payload loss id must be 1 (cross-entropy)");
  }
  SKY_RETURN_NOT_OK(c->ReadU64(&t.shuffle_seed));
  SKY_RETURN_NOT_OK(c->ReadBool(&t.keep_best_validation_weights));
  SKY_RETURN_NOT_OK(c->ReadU32(&e));
  if (e > kMaxTrainerId) {
    return Status::InvalidArgument(
        "forecaster payload trainer id must be 0 or 1");
  }
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  t.grad_chunk_rows = u;

  uint64_t num_categories = 0;
  SKY_RETURN_NOT_OK(c->ReadU64(&num_categories));

  ml::TrainReport report;
  SKY_RETURN_NOT_OK(c->ReadF64Vec(&report.train_loss_per_epoch));
  SKY_RETURN_NOT_OK(c->ReadF64Vec(&report.val_loss_per_epoch));
  SKY_RETURN_NOT_OK(c->ReadF64(&report.best_val_loss));
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  report.best_epoch = u;

  ml::NetSnapshot net;
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  net.input_dim = u;
  SKY_RETURN_NOT_OK(c->ReadU64Vec(&net.hidden));
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  net.output_dim = u;
  SKY_RETURN_NOT_OK(c->ReadU32(&e));
  if (e != kSoftmaxActivationId) {
    return Status::InvalidArgument(
        "forecaster payload activation id must be 2 (softmax)");
  }
  SKY_RETURN_NOT_OK(c->ReadU64(&net.adam_steps));
  SKY_RETURN_NOT_OK(c->ReadF64Vec(&net.params));
  SKY_RETURN_NOT_OK(c->ReadF64Vec(&net.adam_m));
  SKY_RETURN_NOT_OK(c->ReadF64Vec(&net.adam_v));

  SKY_ASSIGN_OR_RETURN(core::Forecaster forecaster,
                       core::Forecaster::FromParts(net, o, num_categories,
                                                   std::move(report)));
  out->emplace(std::move(forecaster));
  return Status::Ok();
}

}  // namespace sky::io::wire
