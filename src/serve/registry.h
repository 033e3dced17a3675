#ifndef SKYSCRAPER_SERVE_REGISTRY_H_
#define SKYSCRAPER_SERVE_REGISTRY_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.h"
#include "io/checkpoint_io.h"
#include "serve/protocol.h"
#include "util/result.h"

namespace sky::serve {

/// Lifecycle of one accepted session. Admission happens at a lockstep plan
/// boundary, so there is no "pending" state a client ever observes: the
/// OpenSession reply IS the admission decision.
enum class SessionState : uint8_t {
  kRunning = 0,  ///< stream is live in the fleet
  kDone = 1,     ///< finished; result stored and fetchable
  kFailed = 2,   ///< quarantined or invalid; error stored
};

const char* SessionStateName(SessionState s);

/// One admitted session: its spec (enough to rebuild the exact simulation
/// on recovery), its fleet slot, and — once terminal — its outcome.
struct SessionRecord {
  uint64_t id = 0;
  SessionSpec spec;
  SessionState state = SessionState::kRunning;
  uint64_t stream_index = 0;  ///< slot in the server's StreamSet
  core::EngineResult result;  ///< valid when kDone
  Status error;               ///< non-OK when kFailed
};

/// The server's session table. Thread-safe: the boundary window writes
/// transitions, connection threads read and block in AwaitResult. Terminal
/// results outlive their streams (a done stream leaves the fleet at the
/// next boundary, its result stays fetchable here — including across a
/// checkpoint/recover cycle).
class SessionRegistry {
 public:
  /// Admits a session (boundary window) under a fresh id.
  uint64_t Add(SessionSpec spec, uint64_t stream_index);

  /// Reinstates a recovered session under its ORIGINAL id.
  void Restore(SessionRecord record);

  /// Marks `id` finished with its bitwise final result; wakes waiters.
  void MarkDone(uint64_t id, core::EngineResult result);

  /// Marks `id` failed; wakes waiters.
  void MarkFailed(uint64_t id, Status error);

  /// Blocks until session `id` reaches a terminal state, then returns its
  /// result (kDone) or stored error (kFailed). kNotFound for an unknown id;
  /// kFailedPrecondition once the server starts draining (the session will
  /// finish after a future --recover, not on this process).
  Result<core::EngineResult> AwaitResult(uint64_t id) const;

  /// Looks up the live fleet slot of a running session.
  Result<uint64_t> StreamIndexOf(uint64_t id) const;

  /// Drain: wakes every AwaitResult waiter whose session is still running.
  void BeginDrain();

  /// Point-in-time copy of every record (metrics, checkpointing).
  std::vector<SessionRecord> Snapshot() const;

  size_t active_count() const;

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::vector<SessionRecord> records_;
  uint64_t next_id_ = 1;
  bool draining_ = false;

  const SessionRecord* FindLocked(uint64_t id) const;
};

/// A serve-server checkpoint: the session table plus the embedded fleet
/// checkpoint (io::SerializeFleetCheckpoint bytes, verbatim), written at a
/// lockstep plan boundary BEFORE that boundary's plan is installed — so a
/// recovered server replays the boundary deterministically and the resumed
/// fleet is bitwise-identical to one that never stopped.
struct ServeCheckpoint {
  uint64_t next_session_id = 1;
  uint64_t sessions_accepted = 0;
  uint64_t sessions_rejected = 0;
  double shared_budget_core_s_per_video_s = 0.0;
  std::vector<SessionRecord> sessions;
  std::string fleet_bytes;
};

Status SerializeServeCheckpoint(const ServeCheckpoint& ckpt,
                                std::string* out);
/// Besides corruption, refuses (kInvalidArgument) a session table with two
/// sessions under one id or two running sessions on one fleet slot.
Result<ServeCheckpoint> ParseServeCheckpoint(const std::string& bytes);

/// Atomic write (temp file + rename) / checked read of the serve format.
Status SaveServeCheckpoint(const ServeCheckpoint& ckpt,
                           const std::string& path);
Result<ServeCheckpoint> LoadServeCheckpoint(const std::string& path);

}  // namespace sky::serve

#endif  // SKYSCRAPER_SERVE_REGISTRY_H_
