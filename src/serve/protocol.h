#ifndef SKYSCRAPER_SERVE_PROTOCOL_H_
#define SKYSCRAPER_SERVE_PROTOCOL_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "core/engine.h"
#include "core/multi_stream.h"
#include "io/checkpoint_io.h"
#include "io/wire.h"
#include "util/result.h"
#include "util/status.h"

namespace sky::serve {

/// The `sky serve` wire protocol: length-prefixed binary frames over a
/// local TCP socket, layered on the io/wire primitives every Skyscraper
/// on-disk format already uses. One frame is
///
///   "SKYF"  (4 bytes)   frame magic
///   type    (u8)        FrameType below
///   length  (u64 LE)    payload byte count
///   payload (length bytes)
///   check   (u64 LE)    FNV-1a-64 over the payload
///
/// Requests and replies are strictly alternating per connection (no
/// pipelining); every request frame gets exactly one reply frame, either
/// its success type or kError. Doubles travel as raw IEEE-754 — an
/// EngineResult crosses the socket bitwise, which is what lets the e2e
/// gates compare served results against in-process runs with ==.
/// See docs/serving.md for the full layout and semantics.

inline constexpr char kFrameMagic[4] = {'S', 'K', 'Y', 'F'};
inline constexpr uint32_t kProtocolVersion = 2;

/// Upper bound on one frame's payload. The largest legitimate payload is a
/// full-trace EngineResult (a few MB at default trace resolution); anything
/// near this bound is a corrupt or hostile length field, refused before
/// allocation.
inline constexpr uint64_t kMaxFramePayload = 256ull << 20;

/// Upper bound on one request payload, which is what the server reads. The
/// largest request is a SessionSpec of about 100 bytes, so a client can
/// never make the server allocate more than this before the checksum.
inline constexpr uint64_t kMaxRequestPayload = 64ull << 10;

enum class FrameType : uint8_t {
  // Client requests.
  kHello = 1,         ///< u32 protocol version -> kHelloOk
  kOpenSession = 2,   ///< SessionSpec -> kSessionOpened (at next boundary)
  kFetchResult = 3,   ///< u64 session id -> kResult (blocks until terminal)
  kReconfigure = 4,   ///< u64 id + StreamReconfig -> kOk (next boundary)
  kSetBudget = 5,     ///< f64 shared budget -> kOk (next boundary)
  kMetrics = 6,       ///< empty -> kMetricsReport
  kCloseSession = 7,  ///< u64 session id -> kOk (stream leaves next boundary)
  kDrain = 8,         ///< empty -> kOk, then the server checkpoints + exits

  // Server replies.
  kHelloOk = 32,         ///< u32 protocol version
  kSessionOpened = 33,   ///< u64 session id, u64 fleet stream index
  kResult = 34,          ///< u64 session id, EngineResult
  kMetricsReport = 35,   ///< string: BENCH-style JSON document
  kOk = 36,              ///< empty generic ack
  kError = 37,           ///< u32 StatusCode, string message
};

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Appends the full wire encoding of one frame to `out`.
void EncodeFrame(FrameType type, const std::string& payload,
                 std::string* out);

/// Blocking frame I/O on a connected socket. WriteFrame retries short
/// writes, and a peer that has hung up is a kInternal error, never a
/// SIGPIPE; ReadFrame validates magic, type, length and checksum before
/// returning. A header declaring more than `max_payload` bytes is refused
/// before the payload is read or allocated: the server passes
/// kMaxRequestPayload, the client kMaxFramePayload. A connection closed
/// cleanly BEFORE any frame byte is kNotFound (the peer simply hung up);
/// an oversized length, mid-frame EOF, a bad magic or a failed checksum are
/// kInvalidArgument; socket errors are kInternal.
Status WriteFrame(int fd, FrameType type, const std::string& payload);
Status ReadFrame(int fd, uint64_t max_payload, Frame* out);

/// Reads one whole frame payload: `read` reads its fields (none when it is
/// null), and a byte left after them is refused ("frame payload has
/// trailing bytes", kInvalidArgument). Every request the server reads and
/// every reply the client reads goes through here.
Status ParsePayload(
    const std::string& payload,
    const std::function<void(io::wire::Cursor&)>& read = nullptr);

/// Everything a client specifies when opening a stream session. The server
/// resolves it against its registered workload/model: fields left negative
/// (or unset) fall back exactly like the corresponding `sky ingest` flags.
struct SessionSpec {
  std::string workload = "ev";  ///< registry name (api::MakeWorkloadByName)
  /// Content seed for the workload simulation; distinct seeds are distinct
  /// cameras. Unset uses the workload's default.
  std::optional<uint64_t> content_seed;
  double start_days = -1.0;          ///< < 0: the model's train horizon
  double duration_days = 1.0;
  double plan_interval_days = -1.0;  ///< <= 0: the model's forecast span
  uint64_t engine_seed = 71;
  bool record_trace = false;
  double trace_resolution_s = 300.0;
  /// Unset: the server's provisioned per-stream cloud budget.
  std::optional<double> cloud_budget_usd_per_interval;
  double work_budget_override = 0.0;
};

/// SessionSpec's layout (io/wire.h, "Symmetric codec"), shared by the
/// kOpenSession payload and the serve checkpoint's session records.
template <class Io, class Spec>
void TransferSessionSpec(Io& io, Spec& spec);
void AppendSessionSpec(const SessionSpec& spec, std::string* out);
/// Decodes a whole kOpenSession payload (ParsePayload).
Status ParseSessionSpec(const std::string& payload, SessionSpec* spec);

/// The kSessionOpened payload (io/wire.h, "Symmetric codec").
template <class Io>
void TransferSessionOpened(Io& io, uint64_t& id, uint64_t& stream_index) {
  io.U64(id);
  io.U64(stream_index);
}

/// The kResult payload.
template <class Io, class R>
void TransferResultReply(Io& io, uint64_t& id, R& result) {
  io.U64(id);
  io::TransferEngineResult(io, result);
}

/// Payload helpers for the fixed-shape frames.
void AppendReconfigure(uint64_t session_id, const core::StreamReconfig& r,
                       std::string* out);
/// Decodes a whole kReconfigure payload (ParsePayload).
Status ParseReconfigure(const std::string& payload, uint64_t* session_id,
                        core::StreamReconfig* r);
void AppendError(const Status& status, std::string* out);
/// Decodes a kError payload back into the Status the server sent.
Status ParseError(const Frame& frame);

/// FNV-1a-64 over the canonical serialized form of a result — the compact
/// bitwise fingerprint `sky client --wait` prints, which the serve smoke
/// compares across server/in-process/recovered runs.
uint64_t ResultFingerprint(const core::EngineResult& r);

}  // namespace sky::serve

#endif  // SKYSCRAPER_SERVE_PROTOCOL_H_
