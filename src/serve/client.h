#ifndef SKYSCRAPER_SERVE_CLIENT_H_
#define SKYSCRAPER_SERVE_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "core/engine.h"
#include "core/multi_stream.h"
#include "serve/protocol.h"
#include "util/result.h"

namespace sky::serve {

/// Synchronous client for one `sky serve` connection. Each method is one
/// request/reply exchange (the protocol is strictly alternating), so a
/// Client must not be shared across threads — open one connection per
/// concurrent session instead, which is also what `sky client` does.
class Client {
 public:
  /// Connects to 127.0.0.1:port and performs the kHello version handshake.
  /// A port outside [1, 65535] is kInvalidArgument.
  static Result<Client> Connect(int port);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  ~Client();

  /// Asks the server to admit a session at its next lockstep boundary.
  /// Returns {session id, fleet stream index} on admission; the server's
  /// rejection Status otherwise (kResourceExhausted when the pooled budget
  /// or session cap refuses the stream).
  Result<std::pair<uint64_t, uint64_t>> OpenSession(const SessionSpec& spec);

  /// Blocks until session `id` finishes and returns its bitwise final
  /// result. kFailedPrecondition when the server drains first (finish the
  /// session by recovering the server from its checkpoint).
  Result<core::EngineResult> FetchResult(uint64_t id);

  /// Live reconfiguration: per-stream knob overrides, effective at the
  /// fleet's next plan boundary.
  Status Reconfigure(uint64_t id, const core::StreamReconfig& changes);

  /// Replaces the fleet-wide pooled budget at the next plan boundary
  /// (<= 0 returns to per-stream-derived budgets).
  Status SetSharedBudget(double core_s_per_video_s);

  /// Fetches the BENCH-style JSON metrics document, from the next boundary
  /// window while the fleet runs.
  Result<std::string> Metrics();

  /// Retires a running session at the next plan boundary.
  Status CloseSession(uint64_t id);

  /// Asks the server to drain: checkpoint at the next boundary and exit.
  Status Drain();

 private:
  explicit Client(int fd) : fd_(fd) {}

  /// One request/reply exchange: `read_reply` reads the whole payload of
  /// the expected reply (ParsePayload; null reads an empty one). A kError
  /// reply comes back as its decoded Status, a reply of any other type as
  /// kInternal.
  Status RoundTrip(
      FrameType request, const std::string& payload, FrameType expected_reply,
      const std::function<void(io::wire::Cursor&)>& read_reply = nullptr);

  int fd_ = -1;
};

}  // namespace sky::serve

#endif  // SKYSCRAPER_SERVE_CLIENT_H_
