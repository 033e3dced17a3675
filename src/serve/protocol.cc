#include "serve/protocol.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "io/checkpoint_io.h"

namespace sky::serve {

namespace {

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

/// The kReconfigure payload: the session id, then each optional change.
template <class Io, class Reconfig>
void TransferReconfigure(Io& io, uint64_t& session_id, Reconfig& r) {
  io.U64(session_id);
  io.Optional(r.cloud_budget_usd_per_interval);
  io.Optional(r.work_budget_override);
}

}  // namespace

void EncodeFrame(FrameType type, const std::string& payload,
                 std::string* out) {
  io::wire::Writer w(out);
  w.Raw(kFrameMagic, sizeof(kFrameMagic));
  w.U8(static_cast<uint8_t>(type));
  w.String(payload);
  w.U64(io::wire::Fnv1a64(payload.data(), payload.size()));
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
  if (stored != io::wire::Fnv1a64(out->payload.data(), out->payload.size())) {
    return Status::InvalidArgument("frame checksum mismatch (corrupted)");
  }
  return Status::Ok();
}

template <class Io, class Spec>
void TransferSessionSpec(Io& io, Spec& spec) {
  io.String(spec.workload);
  io.Optional(spec.content_seed);
  io.F64(spec.start_days);
  io.F64(spec.duration_days);
  io.F64(spec.plan_interval_days);
  io.U64(spec.engine_seed);
  io.Bool(spec.record_trace);
  io.F64(spec.trace_resolution_s);
  io.Optional(spec.cloud_budget_usd_per_interval);
  io.F64(spec.work_budget_override);
}

template void TransferSessionSpec(io::wire::Writer&, const SessionSpec&);
template void TransferSessionSpec(io::wire::Cursor&, SessionSpec&);

void AppendSessionSpec(const SessionSpec& spec, std::string* out) {
  io::wire::Writer w(out);
  TransferSessionSpec(w, spec);
}

Status ParseSessionSpec(io::wire::Cursor* c, SessionSpec* spec) {
  TransferSessionSpec(*c, *spec);
  return c->status();
}

void AppendReconfigure(uint64_t session_id, const core::StreamReconfig& r,
                       std::string* out) {
  io::wire::Writer w(out);
  TransferReconfigure(w, session_id, r);
}

Status ParseReconfigure(io::wire::Cursor* c, uint64_t* session_id,
                        core::StreamReconfig* r) {
  TransferReconfigure(*c, *session_id, *r);
  return c->status();
}

void AppendError(const Status& status, std::string* out) {
  io::wire::Writer(out).StatusField(status);
}

Status ParseError(const Frame& frame) {
  io::wire::Cursor c(frame.payload.data(), frame.payload.size());
  Status status;
  c.StatusField(status);
  SKY_RETURN_NOT_OK(c.status());
  if (status.ok()) return Status::InvalidArgument("malformed error frame");
  return status;
}

uint64_t ResultFingerprint(const core::EngineResult& r) {
  std::string bytes;
  io::AppendEngineResult(r, &bytes);
  return io::wire::Fnv1a64(bytes.data(), bytes.size());
}

}  // namespace sky::serve
