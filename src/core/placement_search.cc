#include "core/placement_search.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>

#include "util/rng.h"

namespace sky::core {

namespace {

/// Above this many candidate count vectors the search samples instead of
/// enumerating: kSampleCount vectors drawn from Rng(kSampleSeed), plus the
/// two extremes.
constexpr size_t kSampleCount = 4096;
constexpr uint64_t kSampleSeed = 31;

Result<PlacementProfile> ProfilePlacement(const dag::TaskGraph& graph,
                                          dag::Placement placement,
                                          const sim::ClusterSpec& cluster) {
  SKY_ASSIGN_OR_RETURN(sim::DagSimResult sim,
                       sim::SimulateDag(graph, placement, cluster));
  PlacementProfile profile;
  profile.placement = std::move(placement);
  profile.runtime_s = sim.makespan_s;
  profile.cloud_usd = sim.cloud_cost_usd;
  profile.onprem_core_s = sim.onprem_core_seconds;
  profile.uplink_bytes = sim.uplink_bytes;
  return profile;
}

/// Candidate numbers of cloud-placed nodes for a group of `n`
/// interchangeable siblings: 0, powers of two, and n itself.
std::vector<size_t> CloudCountCandidates(size_t n) {
  std::vector<size_t> counts = {0};
  for (size_t v = 1; v < n; v *= 2) counts.push_back(v);
  if (n > 0) counts.push_back(n);
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

/// Lexicographic order on the placement bit-vector (kOnPrem < kCloud): the
/// stable index that breaks (cost, runtime) ties independent of evaluation
/// order.
bool PlacementLess(const dag::Placement& a, const dag::Placement& b) {
  return std::lexicographical_compare(
      a.node_loc.begin(), a.node_loc.end(), b.node_loc.begin(),
      b.node_loc.end(), [](dag::Loc x, dag::Loc y) {
        return static_cast<int>(x) < static_cast<int>(y);
      });
}

/// Nodes partitioned into interchangeability groups (TaskNode::group); nodes
/// without a group form singletons. Only the *count* of cloud nodes per
/// group matters, which collapses the 2^n space to a small product.
std::vector<std::vector<size_t>> PartitionGroups(const dag::TaskGraph& graph) {
  std::vector<std::vector<size_t>> groups;
  std::map<int, size_t> group_index;
  for (size_t i = 0; i < graph.NumNodes(); ++i) {
    int gid = graph.node(i).group;
    if (gid < 0) {
      groups.push_back({i});
      continue;
    }
    auto it = group_index.find(gid);
    if (it == group_index.end()) {
      group_index.emplace(gid, groups.size());
      groups.push_back({i});
    } else {
      groups[it->second].push_back(i);
    }
  }
  return groups;
}

dag::Placement BuildPlacement(const std::vector<std::vector<size_t>>& groups,
                              size_t num_nodes,
                              const std::vector<size_t>& counts) {
  dag::Placement p = dag::Placement::AllOnPrem(num_nodes);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (size_t j = 0; j < counts[g] && j < groups[g].size(); ++j) {
      p.node_loc[groups[g][j]] = dag::Loc::kCloud;
    }
  }
  return p;
}

}  // namespace

std::vector<PlacementProfile> ParetoFilterPlacements(
    std::vector<PlacementProfile> profiles) {
  // Sort by (cost asc, runtime asc, placement lexicographic); the placement
  // tie-break makes the kept point on equal-(cost, runtime) ties a pure
  // function of the evaluated set, not of input order. Sweep keeping
  // strictly improving runtimes.
  std::sort(profiles.begin(), profiles.end(),
            [](const PlacementProfile& a, const PlacementProfile& b) {
              if (a.cloud_usd != b.cloud_usd) return a.cloud_usd < b.cloud_usd;
              if (a.runtime_s != b.runtime_s) return a.runtime_s < b.runtime_s;
              return PlacementLess(a.placement, b.placement);
            });
  std::vector<PlacementProfile> pareto;
  double best_runtime = std::numeric_limits<double>::infinity();
  for (PlacementProfile& p : profiles) {
    if (p.runtime_s < best_runtime - 1e-12) {
      best_runtime = p.runtime_s;
      pareto.push_back(std::move(p));
    }
  }
  return pareto;
}

Result<std::vector<PlacementProfile>> SearchPlacements(
    const dag::TaskGraph& graph, const sim::ClusterSpec& cluster,
    dag::ThreadPool* pool) {
  SKY_RETURN_NOT_OK(graph.Validate());
  size_t n = graph.NumNodes();
  if (n == 0) return Status::InvalidArgument("empty task graph");

  std::vector<std::vector<size_t>> groups = PartitionGroups(graph);
  std::vector<std::vector<size_t>> candidates;
  candidates.reserve(groups.size());
  size_t total_combos = 1;
  for (const auto& g : groups) {
    candidates.push_back(CloudCountCandidates(g.size()));
    total_combos *= candidates.back().size();
    if (total_combos > 4 * kSampleCount) {
      total_combos = 4 * kSampleCount;  // saturate; sampled below
    }
  }

  // Enumerate the candidate count vectors serially (RNG draws stay ordered),
  // then simulate them in parallel into per-index slots: the profile list —
  // and therefore the Pareto set — is identical for every thread count.
  std::vector<std::vector<size_t>> combos;
  if (total_combos <= kSampleCount) {
    // Exhaustive cross-product over group cloud counts.
    std::vector<size_t> selector(groups.size(), 0);
    for (;;) {
      std::vector<size_t> counts(groups.size());
      for (size_t g = 0; g < groups.size(); ++g) {
        counts[g] = candidates[g][selector[g]];
      }
      combos.push_back(std::move(counts));
      // Odometer increment.
      size_t g = 0;
      while (g < groups.size() && ++selector[g] == candidates[g].size()) {
        selector[g] = 0;
        ++g;
      }
      if (g == groups.size()) break;
    }
  } else {
    // Random sampling plus the two extremes.
    Rng rng(kSampleSeed);
    combos.emplace_back(groups.size(), 0);
    std::vector<size_t> all_cloud(groups.size());
    for (size_t g = 0; g < groups.size(); ++g) all_cloud[g] = groups[g].size();
    combos.push_back(std::move(all_cloud));
    for (size_t s = 0; s < kSampleCount; ++s) {
      std::vector<size_t> counts(groups.size());
      for (size_t g = 0; g < groups.size(); ++g) {
        size_t pick = static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(candidates[g].size()) - 1));
        counts[g] = candidates[g][pick];
      }
      combos.push_back(std::move(counts));
    }
  }

  std::vector<PlacementProfile> profiles(combos.size());
  std::vector<Status> statuses(combos.size(), Status::Ok());
  dag::ParallelFor(pool, combos.size(), [&](size_t i) {
    Result<PlacementProfile> profile =
        ProfilePlacement(graph, BuildPlacement(groups, n, combos[i]), cluster);
    if (profile.ok()) {
      profiles[i] = std::move(*profile);
    } else {
      statuses[i] = profile.status();
    }
  });
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }

  std::vector<PlacementProfile> pareto =
      ParetoFilterPlacements(std::move(profiles));
  if (pareto.empty()) return Status::Internal("empty Pareto frontier");
  return pareto;
}

}  // namespace sky::core
