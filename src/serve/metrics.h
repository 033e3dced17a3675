#ifndef SKYSCRAPER_SERVE_METRICS_H_
#define SKYSCRAPER_SERVE_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/registry.h"

namespace sky::serve {

/// Server counters gathered by one boundary window for one kMetrics
/// request.
struct ServerMetrics {
  double uptime_s = 0.0;
  uint64_t sessions_accepted = 0;
  uint64_t sessions_rejected = 0;
  uint64_t sessions_running = 0;
  uint64_t sessions_done = 0;
  uint64_t sessions_failed = 0;
  uint64_t boundaries_planned = 0;
  double boundary_p50_ms = 0.0;
  double boundary_p99_ms = 0.0;
  double shared_budget_core_s_per_video_s = 0.0;  ///< 0 = derived per boundary
  double cheapest_fleet_cost_core_s_per_video_s = 0.0;
  uint64_t fleet_restarts = 0;  ///< supervised restarts across the fleet
  std::vector<SessionRecord> sessions;
};

/// Renders the BENCH-style JSON document the kMetricsReport frame carries:
/// flat server counters plus one object per session with the full
/// EngineResult counters (including the fault-injection fields) for
/// terminal sessions. Deterministic key order; %.17g doubles so values
/// round-trip exactly.
std::string RenderMetricsJson(const ServerMetrics& m);

}  // namespace sky::serve

#endif  // SKYSCRAPER_SERVE_METRICS_H_
