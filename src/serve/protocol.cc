#include "serve/protocol.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "io/checkpoint_io.h"

namespace sky::serve {

namespace {

using io::wire::Cursor;
using io::wire::Fnv1a64;
using io::wire::PutBool;
using io::wire::PutF64;
using io::wire::PutRaw;
using io::wire::PutString;
using io::wire::PutU64;
using io::wire::PutU8;

bool ValidFrameType(uint8_t t) {
  return (t >= static_cast<uint8_t>(FrameType::kHello) &&
          t <= static_cast<uint8_t>(FrameType::kDrain)) ||
         (t >= static_cast<uint8_t>(FrameType::kHelloOk) &&
          t <= static_cast<uint8_t>(FrameType::kError));
}

/// Reads exactly n bytes; EINTR restarts. `*eof_at_start` reports a clean
/// close before the first byte, which callers treat as "peer hung up"
/// rather than corruption.
Status ReadExact(int fd, char* buf, size_t n, bool* eof_at_start) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::read(fd, buf + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("socket read failed: ") +
                              ::strerror(errno));
    }
    if (r == 0) {
      if (got == 0 && eof_at_start != nullptr) {
        *eof_at_start = true;
        return Status::NotFound("connection closed");
      }
      return Status::InvalidArgument("connection closed mid-frame");
    }
    got += static_cast<size_t>(r);
  }
  return Status::Ok();
}

/// Writes all n bytes; EINTR restarts. MSG_NOSIGNAL turns a write to a peer
/// that has hung up into an EPIPE Status instead of a SIGPIPE, whose default
/// action would end the whole process.
Status WriteExact(int fd, const char* buf, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    ssize_t w = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("socket write failed: ") +
                              ::strerror(errno));
    }
    sent += static_cast<size_t>(w);
  }
  return Status::Ok();
}

void AppendOptionalF64(std::string* out, const std::optional<double>& v) {
  PutBool(out, v.has_value());
  PutF64(out, v.value_or(0.0));
}

Status ParseOptionalF64(Cursor* c, std::optional<double>* v) {
  bool has = false;
  double x = 0.0;
  SKY_RETURN_NOT_OK(c->ReadBool(&has));
  SKY_RETURN_NOT_OK(c->ReadF64(&x));
  if (has) {
    *v = x;
  } else {
    v->reset();
  }
  return Status::Ok();
}

}  // namespace

void EncodeFrame(FrameType type, const std::string& payload,
                 std::string* out) {
  PutRaw(out, kFrameMagic, sizeof(kFrameMagic));
  PutU8(out, static_cast<uint8_t>(type));
  PutU64(out, payload.size());
  out->append(payload);
  PutU64(out, Fnv1a64(payload.data(), payload.size()));
}

Status WriteFrame(int fd, FrameType type, const std::string& payload) {
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload exceeds protocol maximum");
  }
  std::string wire;
  wire.reserve(payload.size() + 21);
  EncodeFrame(type, payload, &wire);
  return WriteExact(fd, wire.data(), wire.size());
}

Status ReadFrame(int fd, uint64_t max_payload, Frame* out) {
  // Header: magic + type + length.
  char header[13];
  bool eof = false;
  SKY_RETURN_NOT_OK(ReadExact(fd, header, sizeof(header), &eof));
  if (std::memcmp(header, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    return Status::InvalidArgument("bad frame magic (not a sky peer?)");
  }
  uint8_t type = static_cast<uint8_t>(header[4]);
  if (!ValidFrameType(type)) {
    return Status::InvalidArgument("unknown frame type " +
                                   std::to_string(type));
  }
  uint64_t length = 0;
  std::memcpy(&length, header + 5, sizeof(length));
  if (length > max_payload) {
    return Status::InvalidArgument("frame length " + std::to_string(length) +
                                   " exceeds the " +
                                   std::to_string(max_payload) +
                                   "-byte maximum");
  }
  out->type = static_cast<FrameType>(type);
  out->payload.resize(length);
  if (length > 0) {
    SKY_RETURN_NOT_OK(ReadExact(fd, out->payload.data(), length, nullptr));
  }
  char trailer[8];
  SKY_RETURN_NOT_OK(ReadExact(fd, trailer, sizeof(trailer), nullptr));
  uint64_t stored = 0;
  std::memcpy(&stored, trailer, sizeof(stored));
  if (stored != Fnv1a64(out->payload.data(), out->payload.size())) {
    return Status::InvalidArgument("frame checksum mismatch (corrupted)");
  }
  return Status::Ok();
}

void AppendSessionSpec(const SessionSpec& spec, std::string* out) {
  PutString(out, spec.workload);
  PutBool(out, spec.content_seed.has_value());
  PutU64(out, spec.content_seed.value_or(0));
  PutF64(out, spec.start_days);
  PutF64(out, spec.duration_days);
  PutF64(out, spec.plan_interval_days);
  PutU64(out, spec.engine_seed);
  PutBool(out, spec.record_trace);
  PutF64(out, spec.trace_resolution_s);
  AppendOptionalF64(out, spec.cloud_budget_usd_per_interval);
  PutF64(out, spec.work_budget_override);
}

Status ParseSessionSpec(Cursor* c, SessionSpec* spec) {
  SKY_RETURN_NOT_OK(c->ReadString(&spec->workload));
  bool has_seed = false;
  uint64_t seed = 0;
  SKY_RETURN_NOT_OK(c->ReadBool(&has_seed));
  SKY_RETURN_NOT_OK(c->ReadU64(&seed));
  if (has_seed) {
    spec->content_seed = seed;
  } else {
    spec->content_seed.reset();
  }
  SKY_RETURN_NOT_OK(c->ReadF64(&spec->start_days));
  SKY_RETURN_NOT_OK(c->ReadF64(&spec->duration_days));
  SKY_RETURN_NOT_OK(c->ReadF64(&spec->plan_interval_days));
  SKY_RETURN_NOT_OK(c->ReadU64(&spec->engine_seed));
  SKY_RETURN_NOT_OK(c->ReadBool(&spec->record_trace));
  SKY_RETURN_NOT_OK(c->ReadF64(&spec->trace_resolution_s));
  SKY_RETURN_NOT_OK(
      ParseOptionalF64(c, &spec->cloud_budget_usd_per_interval));
  SKY_RETURN_NOT_OK(c->ReadF64(&spec->work_budget_override));
  return Status::Ok();
}

void AppendReconfigure(uint64_t session_id, const core::StreamReconfig& r,
                       std::string* out) {
  PutU64(out, session_id);
  AppendOptionalF64(out, r.cloud_budget_usd_per_interval);
  AppendOptionalF64(out, r.work_budget_override);
}

Status ParseReconfigure(Cursor* c, uint64_t* session_id,
                        core::StreamReconfig* r) {
  SKY_RETURN_NOT_OK(c->ReadU64(session_id));
  SKY_RETURN_NOT_OK(ParseOptionalF64(c, &r->cloud_budget_usd_per_interval));
  SKY_RETURN_NOT_OK(ParseOptionalF64(c, &r->work_budget_override));
  return Status::Ok();
}

void AppendError(const Status& status, std::string* out) {
  io::wire::PutStatus(out, status);
}

Status ParseError(const Frame& frame) {
  Cursor c(frame.payload.data(), frame.payload.size());
  Status status;
  SKY_RETURN_NOT_OK(c.ReadStatus(&status));
  if (status.ok()) return Status::InvalidArgument("malformed error frame");
  return status;
}

uint64_t ResultFingerprint(const core::EngineResult& r) {
  std::string bytes;
  io::AppendEngineResult(r, &bytes);
  return io::wire::Fnv1a64(bytes.data(), bytes.size());
}

}  // namespace sky::serve
