#include "core/placement_search.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "dag/thread_pool.h"
#include "sim/cost_model.h"
#include "util/rng.h"
#include "workloads/covid.h"
#include "workloads/udf_costs.h"

namespace sky::core {
namespace {

bool FrontiersBitwiseEqual(const std::vector<PlacementProfile>& a,
                           const std::vector<PlacementProfile>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].placement.node_loc != b[i].placement.node_loc) return false;
    if (a[i].runtime_s != b[i].runtime_s) return false;
    if (a[i].cloud_usd != b[i].cloud_usd) return false;
    if (a[i].onprem_core_s != b[i].onprem_core_s) return false;
    if (a[i].uplink_bytes != b[i].uplink_bytes) return false;
  }
  return true;
}

dag::TaskGraph HeavyChain(const sim::CostModel& cost_model) {
  dag::TaskGraph g;
  size_t a = g.AddNode(
      workloads::MakeUdfNode("decode", 0.2, 1e5, 5e5, cost_model));
  size_t b = g.AddNode(
      workloads::MakeUdfNode("detect", 8.0, 5e5, 1e4, cost_model));
  size_t c = g.AddNode(
      workloads::MakeUdfNode("track", 1.0, 5e5, 1e4, cost_model));
  (void)g.AddEdge(a, b);
  (void)g.AddEdge(a, c);
  (void)g.AddEdge(b, c);
  return g;
}

TEST(PlacementSearchTest, FrontierIsParetoAndSorted) {
  sim::CostModel cost_model(1.8);
  dag::TaskGraph g = HeavyChain(cost_model);
  sim::ClusterSpec cluster;
  cluster.cores = 2;
  auto frontier = SearchPlacements(g, cluster);
  ASSERT_TRUE(frontier.ok());
  ASSERT_FALSE(frontier->empty());
  for (size_t i = 1; i < frontier->size(); ++i) {
    // Cost strictly ascending, runtime strictly descending.
    EXPECT_GT((*frontier)[i].cloud_usd, (*frontier)[i - 1].cloud_usd);
    EXPECT_LT((*frontier)[i].runtime_s, (*frontier)[i - 1].runtime_s);
  }
}

TEST(PlacementSearchTest, CheapestEntryIsAllOnPrem) {
  sim::CostModel cost_model(1.8);
  dag::TaskGraph g = HeavyChain(cost_model);
  sim::ClusterSpec cluster;
  cluster.cores = 2;
  auto frontier = SearchPlacements(g, cluster);
  ASSERT_TRUE(frontier.ok());
  EXPECT_EQ(frontier->front().placement.NumCloudNodes(), 0u);
  EXPECT_DOUBLE_EQ(frontier->front().cloud_usd, 0.0);
}

TEST(PlacementSearchTest, CloudEntriesReduceRuntimeOnConstrainedCores) {
  sim::CostModel cost_model(1.8);
  dag::TaskGraph g = HeavyChain(cost_model);
  sim::ClusterSpec cluster;
  cluster.cores = 1;  // the 8 s detect node swamps a single core
  auto frontier = SearchPlacements(g, cluster);
  ASSERT_TRUE(frontier.ok());
  // There must be at least one cloud-using placement that beats on-prem.
  EXPECT_GT(frontier->size(), 1u);
  EXPECT_LT(frontier->back().runtime_s, frontier->front().runtime_s);
  EXPECT_GT(frontier->back().cloud_usd, 0.0);
}

TEST(PlacementSearchTest, RejectsEmptyGraph) {
  sim::ClusterSpec cluster;
  dag::TaskGraph g;
  EXPECT_FALSE(SearchPlacements(g, cluster).ok());
}

TEST(ParetoFilterTest, RemovesDominatedPoints) {
  std::vector<PlacementProfile> pts(4);
  pts[0].cloud_usd = 0.0;
  pts[0].runtime_s = 10.0;
  pts[1].cloud_usd = 1.0;
  pts[1].runtime_s = 12.0;  // dominated by 0
  pts[2].cloud_usd = 2.0;
  pts[2].runtime_s = 5.0;
  pts[3].cloud_usd = 3.0;
  pts[3].runtime_s = 5.0;  // dominated by 2
  auto pareto = ParetoFilterPlacements(pts);
  ASSERT_EQ(pareto.size(), 2u);
  EXPECT_DOUBLE_EQ(pareto[0].cloud_usd, 0.0);
  EXPECT_DOUBLE_EQ(pareto[1].cloud_usd, 2.0);
}

TEST(PlacementSearchTest, WorkloadGraphsProduceUsableFrontiers) {
  workloads::CovidWorkload covid;
  sim::CostModel cost_model(1.8);
  sim::ClusterSpec cluster;
  cluster.cores = 4;
  // The most expensive config must have a multi-point frontier on a small
  // server (cloud helps); the cheapest config runs real-time anyway.
  KnobConfig expensive = MostQualitativeConfig(covid);
  dag::TaskGraph g = covid.BuildTaskGraph(expensive, 4.0, cost_model);
  auto frontier = SearchPlacements(g, cluster);
  ASSERT_TRUE(frontier.ok());
  EXPECT_GE(frontier->size(), 2u);
}

// ---------------------------------------------------------------------------
// Sampling: five chunked UDFs of 24 chunks have 7 candidate cloud counts per
// group ({0, 1, 2, 4, 8, 16, 24}), so 7^5 = 16807 count vectors, above the
// 4096-vector enumeration cap. The search must then simulate exactly
// all-on-prem, all-cloud and 4096 vectors drawn from Rng(31) — the reference
// below simulates that set itself — on any pool.
// ---------------------------------------------------------------------------

TEST(PlacementSearchTest, LargeGraphSimulatesExactlyTheSeededSample) {
  constexpr size_t kGroups = 5;
  constexpr size_t kChunks = 24;
  sim::CostModel cost_model(1.8);
  dag::TaskGraph g;
  for (size_t group = 0; group < kGroups; ++group) {
    ASSERT_EQ(workloads::AddChunkedUdf(&g, "udf", static_cast<int>(group),
                                       12.0, 1e6, 1e5, cost_model, 0.5, {})
                  .size(),
              kChunks);
  }
  sim::ClusterSpec cluster;
  cluster.cores = 4;

  const size_t kCandidates[] = {0, 1, 2, 4, 8, 16, 24};
  std::vector<std::vector<size_t>> sample = {
      std::vector<size_t>(kGroups, 0), std::vector<size_t>(kGroups, kChunks)};
  Rng rng(31);
  for (size_t s = 0; s < 4096; ++s) {
    std::vector<size_t> counts(kGroups);
    for (size_t& c : counts) c = kCandidates[rng.UniformInt(0, 6)];
    sample.push_back(std::move(counts));
  }
  std::vector<PlacementProfile> simulated;
  for (const std::vector<size_t>& counts : sample) {
    PlacementProfile p;
    p.placement = dag::Placement::AllOnPrem(g.NumNodes());
    for (size_t group = 0; group < kGroups; ++group) {
      for (size_t j = 0; j < counts[group]; ++j) {
        p.placement.node_loc[group * kChunks + j] = dag::Loc::kCloud;
      }
    }
    auto sim = sim::SimulateDag(g, p.placement, cluster);
    ASSERT_TRUE(sim.ok());
    p.runtime_s = sim->makespan_s;
    p.cloud_usd = sim->cloud_cost_usd;
    p.onprem_core_s = sim->onprem_core_seconds;
    p.uplink_bytes = sim->uplink_bytes;
    simulated.push_back(std::move(p));
  }
  std::vector<PlacementProfile> expected =
      ParetoFilterPlacements(std::move(simulated));

  auto serial = SearchPlacements(g, cluster);
  ASSERT_TRUE(serial.ok());
  EXPECT_GT(serial->size(), 1u);
  EXPECT_TRUE(FrontiersBitwiseEqual(*serial, expected));
  EXPECT_EQ(serial->front().placement.NumCloudNodes(), 0u);
  for (size_t threads : {1u, 2u, 8u}) {
    dag::ThreadPool pool(threads);
    auto pooled = SearchPlacements(g, cluster, &pool);
    ASSERT_TRUE(pooled.ok());
    EXPECT_TRUE(FrontiersBitwiseEqual(*serial, *pooled))
        << "frontier differs at " << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// Tie-breaking regression: on an instance where every placement has the
// same (cost, runtime), the kept placement must be the stable
// lexicographically-smallest one — all-on-prem — for the search and for
// any input order into the Pareto filter (the pre-fix behavior depended on
// evaluation order).
// ---------------------------------------------------------------------------

dag::TaskGraph AllEqualCostGraph() {
  // Three independent unit tasks, identical on-prem/cloud runtimes, zero
  // payloads and zero cloud price: every one of the 2^3 placements
  // simulates to (cost 0, runtime 1) on a wide-enough cluster.
  dag::TaskGraph g;
  for (int i = 0; i < 3; ++i) {
    dag::TaskNode node;
    node.name = "unit";
    node.onprem_runtime_s = 1.0;
    node.cloud_runtime_s = 1.0;
    g.AddNode(node);
  }
  return g;
}

TEST(PlacementSearchTest, AllEqualCostInstancePinsAllOnPrem) {
  dag::TaskGraph g = AllEqualCostGraph();
  sim::ClusterSpec cluster;
  cluster.cores = 4;
  auto frontier = SearchPlacements(g, cluster);
  ASSERT_TRUE(frontier.ok());
  ASSERT_EQ(frontier->size(), 1u);
  EXPECT_EQ(frontier->front().placement.NumCloudNodes(), 0u);
}

TEST(ParetoFilterTest, EqualCostRuntimeTiesBreakByPlacementNotInputOrder) {
  // Four profiles with identical (cost, runtime) but distinct placements.
  std::vector<PlacementProfile> pts(4);
  for (size_t i = 0; i < pts.size(); ++i) {
    pts[i].cloud_usd = 1.0;
    pts[i].runtime_s = 2.0;
    pts[i].placement = dag::Placement::AllOnPrem(3);
  }
  pts[0].placement.node_loc[2] = dag::Loc::kCloud;  // 001
  pts[1].placement.node_loc[0] = dag::Loc::kCloud;  // 100
  pts[2].placement.node_loc[1] = dag::Loc::kCloud;  // 010
  pts[3].placement.node_loc[1] = dag::Loc::kCloud;  // 011
  pts[3].placement.node_loc[2] = dag::Loc::kCloud;

  auto forward = ParetoFilterPlacements(pts);
  std::reverse(pts.begin(), pts.end());
  auto reversed = ParetoFilterPlacements(pts);
  ASSERT_EQ(forward.size(), 1u);
  ASSERT_EQ(reversed.size(), 1u);
  // Lexicographically smallest placement (on-prem sorts first): 001.
  EXPECT_EQ(forward.front().placement.node_loc, reversed.front().placement.node_loc);
  EXPECT_EQ(forward.front().placement.node_loc[0], dag::Loc::kOnPrem);
  EXPECT_EQ(forward.front().placement.node_loc[1], dag::Loc::kOnPrem);
  EXPECT_EQ(forward.front().placement.node_loc[2], dag::Loc::kCloud);
}

}  // namespace
}  // namespace sky::core
