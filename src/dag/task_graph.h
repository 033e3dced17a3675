#ifndef SKYSCRAPER_DAG_TASK_GRAPH_H_
#define SKYSCRAPER_DAG_TASK_GRAPH_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "util/result.h"

namespace sky::dag {

/// Where a task executes. Each UDF has an on-premise and a cloud version
/// (Appendix F); a Placement assigns one location per task graph node.
enum class Loc { kOnPrem, kCloud };

/// One UDF invocation in the processing DAG of a knob configuration.
struct TaskNode {
  std::string name;
  /// Measured runtime of the on-premise version on a single core, seconds.
  double onprem_runtime_s = 0.0;
  /// Measured round-trip time of the cloud version (upload + cloud compute +
  /// download), seconds; the simulator treats it as the cloud busy time.
  double cloud_runtime_s = 0.0;
  /// Average payload sizes used by the bandwidth-occupancy model.
  double input_bytes = 0.0;
  double output_bytes = 0.0;
  /// Cloud credits charged when this task runs in the cloud (USD).
  double cloud_cost_usd = 0.0;
  /// Interchangeability group (>= 0): nodes of the same group are identical
  /// siblings (e.g. the per-frame-batch invocations of one UDF, like the
  /// "60 YOLO tasks" of Appendix M.2). The placement search exploits this
  /// symmetry: only the *count* of cloud-placed nodes per group matters.
  /// -1 means the node is unique.
  int group = -1;
  /// Optional callable for the local executor (synthetic compute kernel).
  std::function<void()> work;
};

/// Directed acyclic graph of TaskNodes. Edges mean "source output feeds
/// target input". Construction is cheap; Validate() checks acyclicity.
class TaskGraph {
 public:
  /// Adds a node and returns its index.
  size_t AddNode(TaskNode node);

  /// Adds a dependency edge from `from` to `to` (from must finish first).
  Status AddEdge(size_t from, size_t to);

  size_t NumNodes() const { return nodes_.size(); }
  const TaskNode& node(size_t i) const { return nodes_[i]; }
  TaskNode& node(size_t i) { return nodes_[i]; }
  const std::vector<size_t>& Parents(size_t i) const { return parents_[i]; }
  const std::vector<size_t>& Children(size_t i) const { return children_[i]; }

  /// Topological order; fails if the graph has a cycle.
  Result<std::vector<size_t>> TopoOrder() const;

  Status Validate() const;

  /// Sum of on-premise runtimes over all nodes (total work if executed
  /// sequentially on one core).
  double TotalOnPremWork() const;

 private:
  std::vector<TaskNode> nodes_;
  std::vector<std::vector<size_t>> parents_;
  std::vector<std::vector<size_t>> children_;
};

/// A location per node of a TaskGraph.
struct Placement {
  std::vector<Loc> node_loc;

  static Placement AllOnPrem(size_t num_nodes) {
    return Placement{std::vector<Loc>(num_nodes, Loc::kOnPrem)};
  }
  static Placement AllCloud(size_t num_nodes) {
    return Placement{std::vector<Loc>(num_nodes, Loc::kCloud)};
  }

  size_t NumCloudNodes() const;
};

}  // namespace sky::dag

#endif  // SKYSCRAPER_DAG_TASK_GRAPH_H_
