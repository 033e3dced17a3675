#ifndef SKYSCRAPER_CORE_PROFILER_H_
#define SKYSCRAPER_CORE_PROFILER_H_

#include <vector>

#include "core/placement_search.h"
#include "core/workload.h"
#include "sim/cluster_sim.h"
#include "sim/cost_model.h"
#include "util/result.h"

namespace sky::core {

/// Everything the online phase needs to know about one knob configuration:
/// its id, its induced work, and its Pareto set of task placements on the
/// provisioned hardware (offline phase step 1, §3.1).
struct ConfigProfile {
  KnobConfig config;
  size_t config_id = 0;
  /// cost(k) of the planner LP: on-premise core-seconds per video-second.
  double work_core_s_per_video_s = 0.0;
  /// Cost-runtime Pareto placements for one segment, cheapest first.
  std::vector<PlacementProfile> placements;

  /// The all-on-premise (cheapest) placement's per-segment runtime.
  double OnPremRuntime() const;
};

/// Profiles each configuration's task graph on the given cluster: builds the
/// DAG for one segment, runs SearchPlacements on it, and records the Pareto
/// set. Configurations are profiled in parallel on `pool`, which also backs
/// each search's placement simulations; the result order and contents match
/// a serial run.
Result<std::vector<ConfigProfile>> ProfileConfigs(
    const Workload& workload, const std::vector<KnobConfig>& configs,
    const sim::ClusterSpec& cluster, const sim::CostModel& cost_model,
    double segment_seconds, dag::ThreadPool* pool = nullptr);

}  // namespace sky::core

#endif  // SKYSCRAPER_CORE_PROFILER_H_
