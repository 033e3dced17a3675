#ifndef SKYSCRAPER_SIM_FAULTS_H_
#define SKYSCRAPER_SIM_FAULTS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/rng.h"
#include "util/sim_time.h"

namespace sky::sim {

/// The failure modes a FaultPlan can schedule. Window events (a start time
/// plus a duration) describe degraded-but-operating conditions; one-shot
/// events (a point in time) describe discrete failures.
enum class FaultKind : uint32_t {
  /// Window. Cloud upload attempts fail independently with probability
  /// `magnitude` inside the window; the engine retries under its
  /// RetryPolicy and degrades the segment on-prem when the budget runs out.
  kTransientCloudFailure = 0,
  /// Window. The cloud is unreachable: reactive bursting is barred
  /// segment-by-segment, and any plan boundary inside the window plans the
  /// interval on-prem-only (no cloud credits granted). Bursting resumes at
  /// the first boundary after the window closes.
  kCloudOutage,
  /// Window. Cloud placements run `magnitude` times slower (network
  /// congestion) — both the switcher's feasibility check and the executed
  /// runtime see the elevated latency.
  kCloudLatency,
  /// Window. The workload UDF runs `magnitude` times slower on every
  /// placement (e.g. a pathological input), growing lag and buffer.
  kUdfStall,
  /// One-shot. The workload UDF throws at the first segment at or after
  /// `at` — the engine raises the exception before mutating any state, so
  /// a supervisor can replay from the last boundary checkpoint bitwise.
  kUdfThrow,
};

struct FaultEvent {
  FaultKind kind = FaultKind::kTransientCloudFailure;
  SimTime at = 0.0;        ///< window start, or the one-shot fire time
  SimTime duration = 0.0;  ///< window length; unused for one-shot kinds
  /// Kind-specific intensity: failure probability for transient failures,
  /// runtime multiplier for latency/stall. Unused for outage/throw.
  double magnitude = 0.0;
};

/// Capped-exponential retry policy for transient cloud failures: attempt j
/// (0-based) backs off min(backoff_base_s * 2^j, backoff_cap_s) before the
/// next try; after `max_attempts` failed attempts the segment degrades to an
/// on-premise placement instead (counted as a giveup, never an error).
struct RetryPolicy {
  size_t max_attempts = 4;
  double backoff_base_s = 0.5;
  double backoff_cap_s = 8.0;
};

/// A deterministic schedule of failures, built programmatically (Add*) and
/// handed to a FaultInjector. Plans are plain data: copyable, comparable by
/// inspection, and independent of any RNG until armed.
struct FaultPlan {
  std::vector<FaultEvent> events;

  void AddTransientCloudFailures(SimTime at, SimTime duration,
                                 double fail_probability);
  void AddCloudOutage(SimTime at, SimTime duration);
  void AddCloudLatency(SimTime at, SimTime duration,
                       double runtime_multiplier);
  void AddUdfStall(SimTime at, SimTime duration, double runtime_multiplier);
  void AddUdfThrow(SimTime at);

  bool empty() const { return events.empty(); }
};

/// Armed fault schedule: the deterministic oracle the engine (and fleet
/// drivers) query while stepping. Wire one into a run with
/// core::EngineOptions::fault_injector.
///
/// Determinism contract: every window query is a PURE function of the query
/// time and the (plan, seed) pair — per-event sub-streams are derived from
/// `seed` at construction (forked off the same splitmix mixing Rng uses), and
/// the per-segment transient-failure draws hash (event seed, time) instead of
/// consuming generator state. Replaying any prefix of a run therefore sees
/// the identical fault sequence regardless of worker count, step batching, or
/// how often a supervisor restores a checkpoint — the property the bitwise
/// recovery gates rest on.
///
/// Thread safety: window queries are const and touch no mutable state;
/// one-shot Consume* calls are atomic (exactly one caller wins). One
/// injector may be shared by many engines, but then its one-shot events fire
/// on whichever stream reaches them first — give each stream its OWN
/// injector (fork per-stream seeds) when per-stream throw scheduling
/// matters.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, uint64_t seed, RetryPolicy retry = {});
  /// Convenience: draw the seed from an existing deterministic stream.
  FaultInjector(FaultPlan plan, Rng* rng, RetryPolicy retry = {});

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }
  const RetryPolicy& retry_policy() const { return retry_; }

  // --- Window queries (pure, thread-safe) ---

  /// True inside any kCloudOutage window.
  bool CloudOutageAt(SimTime t) const;

  /// Product of the magnitudes of every kCloudLatency window covering `t`;
  /// exactly 1.0 outside all windows.
  double CloudLatencyMultiplierAt(SimTime t) const;

  /// Product of the magnitudes of every kUdfStall window covering `t`;
  /// exactly 1.0 outside all windows.
  double UdfStallMultiplierAt(SimTime t) const;

  /// Failed upload attempts a cloud segment at `t` suffers before one
  /// succeeds — a deterministic hash of (event seed, t), not a stateful
  /// draw, so replays and re-orderings see identical failures. Capped at
  /// retry_policy().max_attempts + 1: a count beyond max_attempts means the
  /// segment's retry budget is exhausted (degrade on-prem). 0 outside every
  /// kTransientCloudFailure window.
  size_t CloudUploadFailuresAt(SimTime t) const;

  /// Total backoff delay for `failed_attempts` failed attempts under the
  /// retry policy: sum of min(base * 2^j, cap) for j in [0, failed_attempts).
  double BackoffDelaySeconds(size_t failed_attempts) const;

  // --- One-shot events (consumed exactly once, thread-safe) ---

  /// True exactly once per scheduled kUdfThrow event with `at <= t`.
  bool ConsumeUdfThrowAt(SimTime t);

  /// One-shot events consumed so far (tests / introspection).
  size_t consumed_events() const;

 private:
  FaultPlan plan_;
  RetryPolicy retry_;
  std::vector<uint64_t> event_seeds_;  ///< one derived sub-stream per event
  /// One consumed flag per event (only one-shot kinds ever flip).
  std::unique_ptr<std::atomic<bool>[]> consumed_;
};

}  // namespace sky::sim

#endif  // SKYSCRAPER_SIM_FAULTS_H_
