#ifndef SKYSCRAPER_CORE_PLACEMENT_SEARCH_H_
#define SKYSCRAPER_CORE_PLACEMENT_SEARCH_H_

#include <vector>

#include "dag/task_graph.h"
#include "dag/thread_pool.h"
#include "sim/cluster_sim.h"
#include "util/result.h"

namespace sky::core {

/// One candidate execution of a knob configuration's task graph: a placement
/// plus its simulated runtime/cost profile on the provisioned cluster.
struct PlacementProfile {
  dag::Placement placement;
  double runtime_s = 0.0;        ///< per-segment makespan (Appendix M sim)
  double cloud_usd = 0.0;        ///< cloud credits per segment
  double onprem_core_s = 0.0;    ///< on-premise work per segment
  double uplink_bytes = 0.0;     ///< bytes shipped to the cloud per segment
};

/// Searches placements of `graph` on `cluster` and returns the cost-runtime
/// Pareto frontier (Appendix A.2), sorted by ascending cloud cost (so the
/// first entry is the cheapest, typically all-on-premise, placement and
/// later entries trade dollars for speed).
///
/// The search exploits chunk symmetry (TaskNode::group): only the *count* of
/// cloud-placed nodes per interchangeability group matters, which collapses
/// the 2^n node space to a vector of per-group counts. Per group of n nodes
/// it tries the counts {0, 1, 2, 4, ..., n} (the powers of two below n, plus
/// n), not every count. When the cross product of those candidates is at
/// most 4096 vectors, every vector is simulated; above that (large user
/// graphs, e.g. from CallbackWorkload) the search simulates all-on-premise,
/// all-cloud and a fixed-seed sample of 4096 vectors. Either way the
/// all-on-premise placement that ConfigProfile::OnPremRuntime reads is
/// simulated. The paper uses a learned search (PlaceTo) instead.
///
/// The simulations fan out on `pool` (null = serial). The candidate vectors
/// are generated serially and simulated into per-index slots, and ties on
/// (cost, runtime) break by the lexicographically smallest placement, so the
/// frontier is bitwise identical for any thread count.
Result<std::vector<PlacementProfile>> SearchPlacements(
    const dag::TaskGraph& graph, const sim::ClusterSpec& cluster,
    dag::ThreadPool* pool = nullptr);

/// Filters a set of profiles down to the cost-runtime Pareto frontier,
/// sorted by ascending cloud cost; (cost, runtime) ties keep the
/// lexicographically smallest placement regardless of input order. Exposed
/// for tests.
std::vector<PlacementProfile> ParetoFilterPlacements(
    std::vector<PlacementProfile> profiles);

}  // namespace sky::core

#endif  // SKYSCRAPER_CORE_PLACEMENT_SEARCH_H_
