#include "serve/registry.h"

#include <cmath>
#include <unordered_set>
#include <utility>

#include "io/atomic_file.h"
#include "io/wire.h"

namespace sky::serve {

namespace {

constexpr uint32_t kServeFormatVersion = 2;
const io::wire::ContainerFormat kFormat{"SKYSERV1", kServeFormatVersion,
                                        "serve checkpoint"};

constexpr char kChunkMeta[4] = {'M', 'E', 'T', 'A'};
constexpr char kChunkSession[4] = {'S', 'E', 'S', 'S'};
constexpr char kChunkFleet[4] = {'F', 'L', 'E', 'E'};

/// The META chunk: the server's counters, its pooled budget and the number
/// of SESS chunks.
template <class Io, class Ckpt>
void TransferMeta(Io& io, Ckpt& ckpt, uint64_t& sessions) {
  io.U64(ckpt.next_session_id);
  io.U64(ckpt.sessions_accepted);
  io.U64(ckpt.sessions_rejected);
  io.F64(ckpt.shared_budget_core_s_per_video_s);
  if constexpr (Io::kReads) {
    if (io.ok() && !std::isfinite(ckpt.shared_budget_core_s_per_video_s)) {
      return io.Fail("serve checkpoint shared budget is not finite");
    }
  }
  io.U64(sessions);
}

/// One SESS chunk: a session record, its result only when it is done.
template <class Io, class Record>
void TransferSessionRecord(Io& io, Record& rec) {
  io.U64(rec.id);
  io.Enum8(rec.state, SessionState::kFailed,
           "invalid session state in checkpoint");
  io.U64(rec.stream_index);
  TransferSessionSpec(io, rec.spec);
  io.StatusField(rec.error);
  bool has_result = rec.state == SessionState::kDone;
  io.Bool(has_result);
  if constexpr (Io::kReads) {
    if (io.ok() && has_result != (rec.state == SessionState::kDone)) {
      return io.Fail("session result presence inconsistent with its state");
    }
  }
  if (has_result) io::TransferEngineResult(io, rec.result);
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
                                std::string* out) {
  io::wire::BeginContainer(kFormat, out);
  std::string p;
  io::wire::Writer w(&p);
  uint64_t sessions = ckpt.sessions.size();
  TransferMeta(w, ckpt, sessions);
  io::wire::PutChunk(out, kChunkMeta, p);
  for (const SessionRecord& rec : ckpt.sessions) {
    p.clear();
    TransferSessionRecord(w, rec);
    io::wire::PutChunk(out, kChunkSession, p);
  }
  io::wire::PutChunk(out, kChunkFleet, ckpt.fleet_bytes);
  io::wire::EndContainer(out);
  return Status::Ok();
}

Result<ServeCheckpoint> ParseServeCheckpoint(const std::string& bytes) {
  SKY_ASSIGN_OR_RETURN(std::vector<io::wire::Chunk> chunks,
                       io::wire::ReadContainer(bytes, kFormat));
  // One META before any SESS chunk, one FLEE anywhere.
  ServeCheckpoint ckpt;
  bool seen_meta = false;
  bool seen_fleet = false;
  uint64_t declared_sessions = 0;
  // Results are fetched by id and running sessions harvested by fleet slot:
  // a repeated id, or two running sessions on one slot, would strand one of
  // the pair.
  std::unordered_set<uint64_t> ids;
  std::unordered_set<uint64_t> running_slots;
  for (io::wire::Chunk& chunk : chunks) {
    io::wire::Cursor& payload = chunk.payload;
    if (chunk.Is(kChunkMeta)) {
      if (seen_meta) {
        return Status::InvalidArgument(
            "duplicate META chunk in serve checkpoint");
      }
      seen_meta = true;
      TransferMeta(payload, ckpt, declared_sessions);
      SKY_RETURN_NOT_OK(payload.status());
      // Each session needs its own chunk; a count beyond the chunks present
      // is corruption, not a big table.
      if (declared_sessions > chunks.size()) {
        return Status::InvalidArgument(
            "serve checkpoint declares impossible session count");
      }
      ckpt.sessions.reserve(declared_sessions);
    } else if (chunk.Is(kChunkSession)) {
      if (!seen_meta) {
        return Status::InvalidArgument(
            "serve checkpoint session chunk before META");
      }
      SessionRecord rec;
      TransferSessionRecord(payload, rec);
      SKY_RETURN_NOT_OK(payload.status());
      if (!ids.insert(rec.id).second) {
        return Status::InvalidArgument(
            "serve checkpoint has two sessions with id " +
            std::to_string(rec.id));
      }
      if (rec.state == SessionState::kRunning &&
          !running_slots.insert(rec.stream_index).second) {
        return Status::InvalidArgument(
            "serve checkpoint has two running sessions on fleet slot " +
            std::to_string(rec.stream_index));
      }
      ckpt.sessions.push_back(std::move(rec));
    } else if (chunk.Is(kChunkFleet)) {
      if (seen_fleet) {
        return Status::InvalidArgument(
            "duplicate FLEE chunk in serve checkpoint");
      }
      seen_fleet = true;
      ckpt.fleet_bytes.resize(payload.remaining());
      payload.Raw(ckpt.fleet_bytes.data(), ckpt.fleet_bytes.size());
    } else {
      return Status::InvalidArgument(
          "unknown chunk tag in serve checkpoint");
    }
    payload.ExpectEnd("serve checkpoint chunk");
    SKY_RETURN_NOT_OK(payload.status());
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
  SKY_ASSIGN_OR_RETURN(std::string bytes,
                       io::ReadFileBytes(path, "serve checkpoint"));
  return ParseServeCheckpoint(bytes);
}

}  // namespace sky::serve
