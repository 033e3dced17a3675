#include "serve/registry.h"

#include <cstring>
#include <fstream>
#include <utility>

#include "io/atomic_file.h"
#include "io/wire.h"

namespace sky::serve {

namespace {

using io::wire::Cursor;
using io::wire::Fnv1a64;
using io::wire::PutChunk;
using io::wire::PutF64;
using io::wire::PutRaw;
using io::wire::PutString;
using io::wire::PutU32;
using io::wire::PutU64;
using io::wire::PutU8;
using io::wire::TagIs;

constexpr char kServeMagic[8] = {'S', 'K', 'Y', 'S', 'E', 'R', 'V', '1'};
constexpr uint32_t kServeFormatVersion = 2;
constexpr uint32_t kEndianMarker = 0x01020304u;

constexpr char kChunkMeta[4] = {'M', 'E', 'T', 'A'};
constexpr char kChunkSession[4] = {'S', 'E', 'S', 'S'};
constexpr char kChunkFleet[4] = {'F', 'L', 'E', 'E'};
constexpr char kChunkChecksum[4] = {'C', 'S', 'U', 'M'};

void AppendSessionRecord(const SessionRecord& rec, std::string* p) {
  PutU64(p, rec.id);
  PutU8(p, static_cast<uint8_t>(rec.state));
  PutU64(p, rec.stream_index);
  AppendSessionSpec(rec.spec, p);
  PutU32(p, static_cast<uint32_t>(rec.error.code()));
  PutString(p, rec.error.ok() ? std::string() : rec.error.message());
  io::wire::PutBool(p, rec.state == SessionState::kDone);
  if (rec.state == SessionState::kDone) {
    io::AppendEngineResult(rec.result, p);
  }
}

Status ParseSessionRecord(Cursor* c, SessionRecord* rec) {
  SKY_RETURN_NOT_OK(c->ReadU64(&rec->id));
  uint8_t state = 0;
  SKY_RETURN_NOT_OK(c->ReadU8(&state));
  if (state > static_cast<uint8_t>(SessionState::kFailed)) {
    return Status::InvalidArgument("invalid session state in checkpoint");
  }
  rec->state = static_cast<SessionState>(state);
  SKY_RETURN_NOT_OK(c->ReadU64(&rec->stream_index));
  SKY_RETURN_NOT_OK(ParseSessionSpec(c, &rec->spec));
  uint32_t code = 0;
  SKY_RETURN_NOT_OK(c->ReadU32(&code));
  if (code > static_cast<uint32_t>(StatusCode::kInternal)) {
    return Status::InvalidArgument("invalid status code in checkpoint");
  }
  std::string message;
  SKY_RETURN_NOT_OK(c->ReadString(&message));
  rec->error = code == 0 ? Status::Ok()
                         : Status(static_cast<StatusCode>(code),
                                  std::move(message));
  bool has_result = false;
  SKY_RETURN_NOT_OK(c->ReadBool(&has_result));
  if (has_result != (rec->state == SessionState::kDone)) {
    return Status::InvalidArgument(
        "session result presence inconsistent with its state");
  }
  if (has_result) {
    SKY_RETURN_NOT_OK(io::ParseEngineResult(c, &rec->result));
  }
  return Status::Ok();
}

}  // namespace

const char* SessionStateName(SessionState s) {
  switch (s) {
    case SessionState::kRunning:
      return "running";
    case SessionState::kDone:
      return "done";
    case SessionState::kFailed:
      return "failed";
  }
  return "unknown";
}

uint64_t SessionRegistry::Add(SessionSpec spec, uint64_t stream_index) {
  std::lock_guard<std::mutex> lock(mu_);
  SessionRecord rec;
  rec.id = next_id_++;
  rec.spec = std::move(spec);
  rec.state = SessionState::kRunning;
  rec.stream_index = stream_index;
  records_.push_back(std::move(rec));
  return records_.back().id;
}

void SessionRegistry::Restore(SessionRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (record.id >= next_id_) next_id_ = record.id + 1;
  records_.push_back(std::move(record));
}

const SessionRecord* SessionRegistry::FindLocked(uint64_t id) const {
  for (const SessionRecord& rec : records_) {
    if (rec.id == id) return &rec;
  }
  return nullptr;
}

void SessionRegistry::MarkDone(uint64_t id, core::EngineResult result) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (SessionRecord& rec : records_) {
      if (rec.id != id) continue;
      rec.state = SessionState::kDone;
      rec.result = std::move(result);
      break;
    }
  }
  cv_.notify_all();
}

void SessionRegistry::MarkFailed(uint64_t id, Status error) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (SessionRecord& rec : records_) {
      if (rec.id != id) continue;
      rec.state = SessionState::kFailed;
      rec.error = std::move(error);
      break;
    }
  }
  cv_.notify_all();
}

Result<core::EngineResult> SessionRegistry::AwaitResult(uint64_t id) const {
  std::unique_lock<std::mutex> lock(mu_);
  const SessionRecord* rec = FindLocked(id);
  if (rec == nullptr) {
    return Status::NotFound("no session with id " + std::to_string(id));
  }
  cv_.wait(lock, [&] {
    rec = FindLocked(id);
    return rec->state != SessionState::kRunning || draining_;
  });
  if (rec->state == SessionState::kDone) return rec->result;
  if (rec->state == SessionState::kFailed) return rec->error;
  return Status::FailedPrecondition(
      "server is draining; recover from its checkpoint to finish this "
      "session");
}

Result<uint64_t> SessionRegistry::StreamIndexOf(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const SessionRecord* rec = FindLocked(id);
  if (rec == nullptr) {
    return Status::NotFound("no session with id " + std::to_string(id));
  }
  if (rec->state != SessionState::kRunning) {
    return Status::FailedPrecondition("session is not running");
  }
  return rec->stream_index;
}

void SessionRegistry::BeginDrain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  cv_.notify_all();
}

std::vector<SessionRecord> SessionRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

size_t SessionRegistry::active_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const SessionRecord& rec : records_) {
    if (rec.state == SessionState::kRunning) ++n;
  }
  return n;
}

Status SerializeServeCheckpoint(const ServeCheckpoint& ckpt,
                                std::string* out_bytes) {
  std::string& out = *out_bytes;
  out.clear();
  PutRaw(&out, kServeMagic, sizeof(kServeMagic));
  PutU32(&out, kServeFormatVersion);
  PutU32(&out, kEndianMarker);

  {
    std::string p;
    PutU64(&p, ckpt.next_session_id);
    PutU64(&p, ckpt.sessions_accepted);
    PutU64(&p, ckpt.sessions_rejected);
    PutF64(&p, ckpt.shared_budget_core_s_per_video_s);
    PutU64(&p, ckpt.sessions.size());
    PutChunk(&out, kChunkMeta, p);
  }
  for (const SessionRecord& rec : ckpt.sessions) {
    std::string p;
    AppendSessionRecord(rec, &p);
    PutChunk(&out, kChunkSession, p);
  }
  PutChunk(&out, kChunkFleet, ckpt.fleet_bytes);

  std::string checksum;
  PutU64(&checksum, Fnv1a64(out.data(), out.size()));
  PutChunk(&out, kChunkChecksum, checksum);
  return Status::Ok();
}

Result<ServeCheckpoint> ParseServeCheckpoint(const std::string& bytes) {
  Cursor header(bytes.data(), bytes.size());
  char magic[8];
  SKY_RETURN_NOT_OK(header.Read(magic, sizeof(magic)));
  if (std::memcmp(magic, kServeMagic, sizeof(kServeMagic)) != 0) {
    return Status::InvalidArgument(
        "not a sky serve checkpoint file (bad magic)");
  }
  uint32_t version = 0, endian = 0;
  SKY_RETURN_NOT_OK(header.ReadU32(&version));
  if (version != kServeFormatVersion) {
    return Status::InvalidArgument(
        "unsupported serve checkpoint version " + std::to_string(version));
  }
  SKY_RETURN_NOT_OK(header.ReadU32(&endian));
  if (endian != kEndianMarker) {
    return Status::InvalidArgument(
        "serve checkpoint written with different byte order");
  }

  // Pass 1: checksum trailer before parsing anything (same discipline as
  // every other Skyscraper format).
  Cursor walk(bytes.data(), bytes.size());
  SKY_RETURN_NOT_OK(walk.Skip(16));
  bool checksum_seen = false;
  while (walk.remaining() > 0) {
    char tag[4];
    SKY_RETURN_NOT_OK(walk.Read(tag, 4));
    uint64_t size = 0;
    SKY_RETURN_NOT_OK(walk.ReadU64(&size));
    if (TagIs(tag, kChunkChecksum)) {
      if (size != sizeof(uint64_t) || walk.remaining() != size) {
        return Status::InvalidArgument(
            "malformed serve checkpoint checksum trailer");
      }
      size_t covered = walk.pos() - 12;
      uint64_t stored = 0;
      SKY_RETURN_NOT_OK(walk.ReadU64(&stored));
      if (stored != Fnv1a64(bytes.data(), covered)) {
        return Status::InvalidArgument(
            "serve checkpoint checksum mismatch (corrupted)");
      }
      checksum_seen = true;
      break;
    }
    SKY_RETURN_NOT_OK(walk.Skip(size));
  }
  if (!checksum_seen) {
    return Status::InvalidArgument(
        "serve checkpoint missing checksum trailer");
  }

  // Pass 2: parse chunks.
  ServeCheckpoint ckpt;
  bool seen_meta = false;
  bool seen_fleet = false;
  uint64_t declared_sessions = 0;
  Cursor c(bytes.data(), bytes.size());
  SKY_RETURN_NOT_OK(c.Skip(16));
  while (c.remaining() > 0) {
    char tag[4];
    SKY_RETURN_NOT_OK(c.Read(tag, 4));
    uint64_t size = 0;
    SKY_RETURN_NOT_OK(c.ReadU64(&size));
    if (size > c.remaining()) {
      return Status::InvalidArgument("serve checkpoint truncated mid-chunk");
    }
    Cursor payload(bytes.data() + c.pos(), size);
    if (TagIs(tag, kChunkChecksum)) break;

    if (TagIs(tag, kChunkMeta)) {
      if (seen_meta) {
        return Status::InvalidArgument(
            "duplicate META chunk in serve checkpoint");
      }
      seen_meta = true;
      SKY_RETURN_NOT_OK(payload.ReadU64(&ckpt.next_session_id));
      SKY_RETURN_NOT_OK(payload.ReadU64(&ckpt.sessions_accepted));
      SKY_RETURN_NOT_OK(payload.ReadU64(&ckpt.sessions_rejected));
      SKY_RETURN_NOT_OK(
          payload.ReadF64(&ckpt.shared_budget_core_s_per_video_s));
      SKY_RETURN_NOT_OK(payload.ReadU64(&declared_sessions));
      if (declared_sessions > bytes.size()) {
        return Status::InvalidArgument(
            "serve checkpoint declares impossible session count");
      }
      ckpt.sessions.reserve(declared_sessions);
    } else if (TagIs(tag, kChunkSession)) {
      if (!seen_meta) {
        return Status::InvalidArgument(
            "serve checkpoint session chunk before META");
      }
      SessionRecord rec;
      SKY_RETURN_NOT_OK(ParseSessionRecord(&payload, &rec));
      ckpt.sessions.push_back(std::move(rec));
    } else if (TagIs(tag, kChunkFleet)) {
      if (seen_fleet) {
        return Status::InvalidArgument(
            "duplicate FLEE chunk in serve checkpoint");
      }
      seen_fleet = true;
      ckpt.fleet_bytes.assign(bytes.data() + c.pos(), size);
    } else {
      return Status::InvalidArgument(
          "unknown chunk tag in serve checkpoint");
    }
    if (!TagIs(tag, kChunkFleet) && payload.remaining() != 0) {
      return Status::InvalidArgument(
          "serve checkpoint chunk has trailing bytes");
    }
    SKY_RETURN_NOT_OK(c.Skip(size));
  }
  if (!seen_meta || !seen_fleet) {
    return Status::InvalidArgument(
        "serve checkpoint is missing a required chunk");
  }
  if (ckpt.sessions.size() != declared_sessions) {
    return Status::InvalidArgument(
        "serve checkpoint session count does not match META");
  }
  return ckpt;
}

Status SaveServeCheckpoint(const ServeCheckpoint& ckpt,
                           const std::string& path) {
  std::string bytes;
  SKY_RETURN_NOT_OK(SerializeServeCheckpoint(ckpt, &bytes));
  return io::AtomicWriteFile(path, bytes);
}

Result<ServeCheckpoint> LoadServeCheckpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open serve checkpoint " + path);
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    return Status::Internal("error reading serve checkpoint " + path);
  }
  return ParseServeCheckpoint(bytes);
}

}  // namespace sky::serve
