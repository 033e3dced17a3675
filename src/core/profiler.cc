#include "core/profiler.h"

namespace sky::core {

double ConfigProfile::OnPremRuntime() const {
  for (const PlacementProfile& p : placements) {
    if (p.placement.NumCloudNodes() == 0) return p.runtime_s;
  }
  // No pure on-prem placement on the frontier (it was dominated); fall back
  // to the cheapest entry.
  return placements.empty() ? 0.0 : placements.front().runtime_s;
}

Result<std::vector<ConfigProfile>> ProfileConfigs(
    const Workload& workload, const std::vector<KnobConfig>& configs,
    const sim::ClusterSpec& cluster, const sim::CostModel& cost_model,
    double segment_seconds, dag::ThreadPool* pool) {
  if (configs.empty()) {
    return Status::InvalidArgument("no configurations to profile");
  }
  const KnobSpace& space = workload.knob_space();
  for (const KnobConfig& config : configs) {
    SKY_RETURN_NOT_OK(space.ValidateConfig(config));
  }

  std::vector<ConfigProfile> profiles(configs.size());
  std::vector<Status> statuses(configs.size(), Status::Ok());
  dag::ParallelFor(pool, configs.size(), [&](size_t i) {
    ConfigProfile& profile = profiles[i];
    profile.config = configs[i];
    profile.config_id = space.ConfigToId(configs[i]);
    profile.work_core_s_per_video_s =
        workload.CostCoreSecondsPerVideoSecond(configs[i]);
    dag::TaskGraph graph =
        workload.BuildTaskGraph(configs[i], segment_seconds, cost_model);
    Result<std::vector<PlacementProfile>> placements =
        SearchPlacements(graph, cluster, pool);
    if (placements.ok()) {
      profile.placements = std::move(*placements);
    } else {
      statuses[i] = placements.status();
    }
  });
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return profiles;
}

}  // namespace sky::core
