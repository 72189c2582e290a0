#ifndef SMILER_COMMON_TASK_GRAPH_H_
#define SMILER_COMMON_TASK_GRAPH_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace smiler {

/// \brief A dataflow DAG of Status-returning closures executed over the
/// process ThreadPool (ROADMAP item 2: the async predict pipeline).
///
/// Nodes are stage closures (lb_filter, dtw_verify, gram, cholesky,
/// forecast, rehydrate IO, ...), edges are happens-before dependencies.
/// `Run` executes every node exactly once in some topological order:
/// the calling thread and a work-stealing-style set of pool helpers
/// drain a shared ready queue, so independent chains overlap while each
/// chain stays sequential. A caller that runs inline (a serve shard)
/// drains the queue alone.
///
/// Error containment mirrors the serve layer's per-sensor Status
/// isolation: a node returning a non-OK Status *poisons* its transitive
/// dependents — they are never executed and complete with the first
/// (lowest-node-id) failed parent's Status verbatim — while every
/// unrelated node runs to completion. `Future(id)` exposes a completion
/// future per node; Run fulfils every future on every path (success,
/// poison, cycle, cancel), so callers never leak a waiter.
///
/// Determinism: the graph imposes no order beyond the edges, and the
/// executor adds no hidden rendezvous, so closures whose results are
/// independent of sibling completion order (the predict pipeline's
/// per-sensor chains) produce bitwise-identical results under any
/// schedule — task_graph_equivalence_test pins that against the
/// sequential path, and the `graph.node_defer` chaos point adversarially
/// reorders ready nodes to prove no ordering dependence crept in.
///
/// Thread safety: build the graph (AddNode/AddEdge) from one thread;
/// Run once. Cancel may be called from any thread (including a node)
/// while Run is in flight.
class TaskGraph {
 public:
  using NodeId = std::size_t;

  struct Options {
    /// Prefix for the executor's conservation gauges
    /// (`<prefix>.ready_nodes`, `.running_nodes`, `.done_nodes`) — level
    /// gauges that conserve to exactly 0 after every drain, the same law
    /// the chaos runner asserts for the serve queue-depth gauges. Empty
    /// disables gauge accounting (micro-graphs in tight loops).
    std::string gauge_prefix;
  };

  TaskGraph() : TaskGraph(Options{}) {}
  explicit TaskGraph(Options options);

  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Adds a node executing \p fn. \p label names the node in traces and
  /// error messages. Returns the node's id (dense, starting at 0).
  NodeId AddNode(std::string label, std::function<Status()> fn);

  /// Declares that \p from must complete (OK) before \p to starts.
  /// Duplicate edges are idempotent. Fails with kInvalidArgument on
  /// unknown ids or a self-edge; cycles are detected at Run.
  Status AddEdge(NodeId from, NodeId to);

  /// Completion future for node \p id (sharable; valid for the graph's
  /// lifetime). Satisfied by Run on every path — including cycle
  /// rejection and Cancel — with the node's Status.
  std::shared_future<Status> Future(NodeId id) const;

  /// Executes the graph to completion over \p pool (default: the process
  /// pool). On a thread that runs inline (ThreadPool::RunsInline: a serve
  /// shard or a pool worker) no helpers are enlisted and the caller
  /// drains every node itself. Returns kInvalidArgument without
  /// executing anything when the edges contain a cycle (every future
  /// carries that error), and otherwise the first (lowest-node-id) non-OK
  /// node Status, or OK.
  /// Run may be called at most once per graph.
  Status Run(ThreadPool* pool = nullptr);

  /// Requests early shutdown: nodes not yet claimed are marked cancelled
  /// (kFailedPrecondition) instead of executing; nodes already running
  /// finish normally. Run still drains every node's bookkeeping, so all
  /// futures are satisfied and the conservation gauges settle to 0.
  void Cancel();

  std::size_t num_nodes() const { return nodes_.size(); }
  const std::string& label(NodeId id) const { return nodes_[id]->label; }

 private:
  struct Node {
    std::string label;
    std::function<Status()> fn;
    std::vector<NodeId> dependents;
    std::vector<NodeId> parents;
    std::size_t num_deps = 0;          // static in-degree
    std::size_t pending_deps = 0;      // runtime countdown (guarded by mu_)
    Status result;                     // written once, before the promise
    bool poisoned = false;             // a parent failed: skip fn
    std::promise<Status> promise;
    std::shared_future<Status> future;
  };

  /// Pops and executes ready nodes until the queue is momentarily empty.
  /// Shared by the caller thread and the pool helpers.
  void DrainReady();
  /// Executes one claimed node and unlocks its dependents. \p lock is the
  /// held mu_ lock (released around fn, re-acquired after).
  void ExecuteNode(NodeId id, std::unique_lock<std::mutex>& lock);
  /// Marks \p id ready under mu_ (gauge + queue + helper refill signal).
  void PushReady(NodeId id);
  /// True when the static edge set contains a cycle (Kahn's algorithm).
  bool HasCycle() const;

  std::vector<std::unique_ptr<Node>> nodes_;
  bool ran_ = false;

  // Executor state (valid during Run).
  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  std::deque<NodeId> ready_;
  std::size_t completed_ = 0;
  bool cancelled_ = false;
  ThreadPool* pool_ = nullptr;
  int helpers_in_flight_ = 0;
  int max_helpers_ = 0;

  // Conservation gauges (null when gauge_prefix is empty).
  obs::Gauge* ready_gauge_ = nullptr;
  obs::Gauge* running_gauge_ = nullptr;
  obs::Gauge* done_gauge_ = nullptr;
};

}  // namespace smiler

#endif  // SMILER_COMMON_TASK_GRAPH_H_
