#include "dag/task_graph.h"

#include <queue>

namespace sky::dag {

size_t TaskGraph::AddNode(TaskNode node) {
  nodes_.push_back(std::move(node));
  parents_.emplace_back();
  children_.emplace_back();
  return nodes_.size() - 1;
}

Status TaskGraph::AddEdge(size_t from, size_t to) {
  if (from >= nodes_.size() || to >= nodes_.size()) {
    return Status::OutOfRange("edge endpoint out of range");
  }
  if (from == to) return Status::InvalidArgument("self edge");
  children_[from].push_back(to);
  parents_[to].push_back(from);
  return Status::Ok();
}

Result<std::vector<size_t>> TaskGraph::TopoOrder() const {
  std::vector<size_t> indegree(nodes_.size(), 0);
  for (size_t i = 0; i < nodes_.size(); ++i) indegree[i] = parents_[i].size();
  std::queue<size_t> ready;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (indegree[i] == 0) ready.push(i);
  }
  std::vector<size_t> order;
  order.reserve(nodes_.size());
  while (!ready.empty()) {
    size_t u = ready.front();
    ready.pop();
    order.push_back(u);
    for (size_t v : children_[u]) {
      if (--indegree[v] == 0) ready.push(v);
    }
  }
  if (order.size() != nodes_.size()) {
    return Status::InvalidArgument("task graph contains a cycle");
  }
  return order;
}

Status TaskGraph::Validate() const {
  auto order = TopoOrder();
  return order.ok() ? Status::Ok() : order.status();
}

double TaskGraph::TotalOnPremWork() const {
  double total = 0.0;
  for (const TaskNode& n : nodes_) total += n.onprem_runtime_s;
  return total;
}

size_t Placement::NumCloudNodes() const {
  size_t n = 0;
  for (Loc l : node_loc) n += (l == Loc::kCloud) ? 1 : 0;
  return n;
}

}  // namespace sky::dag
