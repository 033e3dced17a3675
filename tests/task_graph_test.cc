#include "dag/task_graph.h"

#include <gtest/gtest.h>

namespace sky::dag {
namespace {

TaskNode Node(std::string name, double runtime) {
  TaskNode n;
  n.name = std::move(name);
  n.onprem_runtime_s = runtime;
  return n;
}

TEST(TaskGraphTest, BuildAndQuery) {
  TaskGraph g;
  size_t a = g.AddNode(Node("decode", 1.0));
  size_t b = g.AddNode(Node("detect", 2.0));
  size_t c = g.AddNode(Node("track", 0.5));
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  ASSERT_TRUE(g.AddEdge(b, c).ok());
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.Parents(c), (std::vector<size_t>{b}));
  EXPECT_EQ(g.Children(a), (std::vector<size_t>{b}));
  EXPECT_DOUBLE_EQ(g.TotalOnPremWork(), 3.5);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(TaskGraphTest, TopoOrderRespectsDependencies) {
  TaskGraph g;
  size_t a = g.AddNode(Node("a", 1));
  size_t b = g.AddNode(Node("b", 1));
  size_t c = g.AddNode(Node("c", 1));
  ASSERT_TRUE(g.AddEdge(a, c).ok());
  ASSERT_TRUE(g.AddEdge(b, c).ok());
  auto order = g.TopoOrder();
  ASSERT_TRUE(order.ok());
  std::vector<size_t> pos(3);
  for (size_t i = 0; i < order->size(); ++i) pos[(*order)[i]] = i;
  EXPECT_LT(pos[a], pos[c]);
  EXPECT_LT(pos[b], pos[c]);
}

TEST(TaskGraphTest, DetectsCycle) {
  TaskGraph g;
  size_t a = g.AddNode(Node("a", 1));
  size_t b = g.AddNode(Node("b", 1));
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  ASSERT_TRUE(g.AddEdge(b, a).ok());
  EXPECT_FALSE(g.Validate().ok());
  EXPECT_FALSE(g.TopoOrder().ok());
}

TEST(TaskGraphTest, RejectsBadEdges) {
  TaskGraph g;
  size_t a = g.AddNode(Node("a", 1));
  EXPECT_FALSE(g.AddEdge(a, a).ok());
  EXPECT_FALSE(g.AddEdge(a, 5).ok());
  EXPECT_FALSE(g.AddEdge(9, a).ok());
}

TEST(PlacementTest, FactoriesCountCloudNodes) {
  EXPECT_EQ(Placement::AllOnPrem(2).NumCloudNodes(), 0u);
  EXPECT_EQ(Placement::AllCloud(2).NumCloudNodes(), 2u);
  Placement mixed{{Loc::kOnPrem, Loc::kCloud}};
  EXPECT_EQ(mixed.NumCloudNodes(), 1u);
}

}  // namespace
}  // namespace sky::dag
