#include "common/task_graph.h"

#include <algorithm>
#include <utility>

#include "chaos/fault.h"
#include "obs/trace.h"

namespace smiler {

TaskGraph::TaskGraph(Options options) {
  if (!options.gauge_prefix.empty()) {
    obs::Registry& reg = obs::Registry::Global();
    ready_gauge_ = &reg.GetGauge(options.gauge_prefix + ".ready_nodes");
    running_gauge_ = &reg.GetGauge(options.gauge_prefix + ".running_nodes");
    done_gauge_ = &reg.GetGauge(options.gauge_prefix + ".done_nodes");
  }
}

TaskGraph::NodeId TaskGraph::AddNode(std::string label,
                                     std::function<Status()> fn) {
  auto node = std::make_unique<Node>();
  node->label = std::move(label);
  node->fn = std::move(fn);
  node->future = node->promise.get_future().share();
  nodes_.push_back(std::move(node));
  return nodes_.size() - 1;
}

Status TaskGraph::AddEdge(NodeId from, NodeId to) {
  if (from >= nodes_.size() || to >= nodes_.size()) {
    return Status::InvalidArgument("task graph edge references unknown node");
  }
  if (from == to) {
    return Status::InvalidArgument("task graph self-edge on node '" +
                                   nodes_[from]->label + "'");
  }
  std::vector<NodeId>& deps = nodes_[from]->dependents;
  if (std::find(deps.begin(), deps.end(), to) != deps.end()) {
    return Status::OK();  // duplicate edges are idempotent
  }
  deps.push_back(to);
  nodes_[to]->parents.push_back(from);
  ++nodes_[to]->num_deps;
  return Status::OK();
}

std::shared_future<Status> TaskGraph::Future(NodeId id) const {
  return nodes_[id]->future;
}

bool TaskGraph::HasCycle() const {
  // Kahn's algorithm over the static in-degrees: a DAG drains completely.
  std::vector<std::size_t> degree(nodes_.size());
  std::deque<NodeId> frontier;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    degree[id] = nodes_[id]->num_deps;
    if (degree[id] == 0) frontier.push_back(id);
  }
  std::size_t visited = 0;
  while (!frontier.empty()) {
    const NodeId id = frontier.front();
    frontier.pop_front();
    ++visited;
    for (NodeId dep : nodes_[id]->dependents) {
      if (--degree[dep] == 0) frontier.push_back(dep);
    }
  }
  return visited != nodes_.size();
}

void TaskGraph::PushReady(NodeId id) {
  ready_.push_back(id);
  if (ready_gauge_ != nullptr) ready_gauge_->Add(1.0);
  // Work-stealing-style refill: when more than one node is ready the
  // current drainers have surplus work, so enlist another pool helper (up
  // to the pool size). Helpers exit when the queue goes momentarily
  // empty; completions that fan out re-enlist them here.
  if (pool_ != nullptr && ready_.size() > 1 &&
      helpers_in_flight_ < max_helpers_) {
    ++helpers_in_flight_;
    pool_->Submit([this] {
      DrainReady();
      std::lock_guard<std::mutex> lock(mu_);
      --helpers_in_flight_;
      if (completed_ == nodes_.size() && helpers_in_flight_ == 0) {
        done_cv_.notify_all();
      }
    });
  }
}

void TaskGraph::ExecuteNode(NodeId id, std::unique_lock<std::mutex>& lock) {
  Node& node = *nodes_[id];
  if (running_gauge_ != nullptr) running_gauge_->Add(1.0);
  if (!node.poisoned && cancelled_) {
    node.poisoned = true;  // skip-slot: drains without executing fn
    node.result = Status::FailedPrecondition(
        "task graph cancelled before node '" + node.label + "' ran");
  }
  if (!node.poisoned) {
    lock.unlock();
    Status result = [&node] {
      SMILER_TRACE_SPAN("graph.node");
      return node.fn();
    }();
    lock.lock();
    node.result = std::move(result);
  }
  // Unlock the dependents. A failing (or poisoned/cancelled) parent
  // poisons them: each dependent adopts its first failed parent's Status
  // — scanned in node-id order for a deterministic verdict when several
  // parents failed — and drains through the queue as a skip-slot, so the
  // counting (and the conservation gauges) never special-case errors.
  for (NodeId dep_id : node.dependents) {
    Node& dep = *nodes_[dep_id];
    if (--dep.pending_deps == 0) {
      for (NodeId parent : dep.parents) {
        if (!nodes_[parent]->result.ok()) {
          dep.poisoned = true;
          dep.result = nodes_[parent]->result;
          break;
        }
      }
      PushReady(dep_id);
    }
  }
  node.promise.set_value(node.result);
  ++completed_;
  if (running_gauge_ != nullptr) running_gauge_->Add(-1.0);
  if (done_gauge_ != nullptr) done_gauge_->Add(1.0);
  if (completed_ == nodes_.size()) done_cv_.notify_all();
}

void TaskGraph::DrainReady() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!ready_.empty()) {
    NodeId id = ready_.front();
    ready_.pop_front();
    // Adversarial-schedule chaos point: a fired hit sends the claimed
    // node to the back of the queue and claims the next one instead — a
    // benign reordering (never a Status change), so scenario fingerprints
    // must stay bit-identical with this armed. The hit is consumed
    // BEFORE the queue-state check: one hit per claim, so the serial
    // chaos driver's hit sequence is a pure function of the node count.
    if (SMILER_FAULT_TRIGGERED("graph.node_defer") && !ready_.empty()) {
      ready_.push_back(id);
      id = ready_.front();
      ready_.pop_front();
    }
    if (ready_gauge_ != nullptr) ready_gauge_->Add(-1.0);
    ExecuteNode(id, lock);
  }
}

Status TaskGraph::Run(ThreadPool* pool) {
  if (ran_) {
    return Status::FailedPrecondition("task graph already ran");
  }
  ran_ = true;
  if (HasCycle()) {
    const Status cycle =
        Status::InvalidArgument("task graph contains a dependency cycle");
    for (auto& node : nodes_) node->promise.set_value(cycle);
    return cycle;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    pool_ = pool != nullptr ? pool : &ThreadPool::Default();
    // The caller thread is drainer #0; helpers top out at the pool size.
    // A caller that runs inline (a serve shard) enlists none: the graph
    // then runs on that thread alone.
    max_helpers_ =
        ThreadPool::RunsInline() ? 0 : static_cast<int>(pool_->size());
    for (NodeId id = 0; id < nodes_.size(); ++id) {
      nodes_[id]->pending_deps = nodes_[id]->num_deps;
    }
    for (NodeId id = 0; id < nodes_.size(); ++id) {
      if (nodes_[id]->num_deps == 0) PushReady(id);
    }
  }
  // The caller drains alongside the helpers (its executions run on the
  // request's owner thread, so stage scopes inside the closures
  // self-attribute), then waits out stragglers. Helpers must be fully
  // retired before returning: they capture `this`.
  DrainReady();
  std::unique_lock<std::mutex> lock(mu_);
  while (completed_ < nodes_.size() || helpers_in_flight_ > 0) {
    if (!ready_.empty()) {
      lock.unlock();
      DrainReady();
      lock.lock();
    }
    done_cv_.wait(lock, [this] {
      return !ready_.empty() ||
             (completed_ == nodes_.size() && helpers_in_flight_ == 0);
    });
  }
  // Settle the cumulative done gauge so all three executor gauges
  // conserve to 0 after every drain (the chaos runner's law).
  if (done_gauge_ != nullptr) {
    done_gauge_->Add(-static_cast<double>(completed_));
  }
  for (auto& node : nodes_) {
    if (!node->result.ok()) return node->result;
  }
  return Status::OK();
}

void TaskGraph::Cancel() {
  std::lock_guard<std::mutex> lock(mu_);
  cancelled_ = true;
}

}  // namespace smiler
