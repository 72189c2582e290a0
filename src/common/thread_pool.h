#ifndef SMILER_COMMON_THREAD_POOL_H_
#define SMILER_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace smiler {

/// \brief Fixed-size worker pool with a blocking ParallelFor.
///
/// Used by the simulated GPU device (`simgpu::Device`) to distribute thread
/// blocks over CPU cores, and by the benchmark harness for multi-sensor
/// fan-out. Tasks must not throw; exceptions escaping a task terminate.
///
/// One level of parallelism: a thread flagged as running inline (every
/// pool worker, and each serve shard worker via MarkRunsInline) executes
/// ParallelFor in place and enlists no helpers, so work started on a
/// shard never queues behind, or competes with, another shard's work on
/// the pool. The pool serves work started on a caller's own thread.
class ThreadPool {
 public:
  /// Creates a pool with \p num_threads workers (0 = hardware concurrency).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// Runs `fn(i)` for every i in [0, n), distributing chunks over workers,
  /// and blocks until all iterations completed. Safe to call with n == 0.
  /// On a thread that runs inline (RunsInline) every iteration runs on the
  /// calling thread, in index order.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Fire-and-forget task submission (serve-layer background work:
  /// checkpoint serialization, deferred IO). The task runs on some worker
  /// at an unspecified time; Submit never blocks on task execution and is
  /// safe to call concurrently with ParallelFor (both feed the same
  /// queue). Shutdown drains: every task submitted before the destructor
  /// runs is executed before the workers join. Submitting from inside a
  /// pool task is allowed (the task is simply enqueued).
  void Submit(std::function<void()> task);

  /// Returns the process-wide default pool (hardware concurrency workers).
  static ThreadPool& Default();

  /// True when the calling thread runs engine work inline: a pool worker
  /// (a re-entrant fan-out would deadlock) or a thread that called
  /// MarkRunsInline. ParallelFor then runs in place, and the parallel
  /// consumers (simgpu::NativeContext::parallelism, TaskGraph::Run) size
  /// themselves to this one thread.
  static bool RunsInline();

  /// Flags the calling thread as running inline for the rest of its life.
  /// Serve shard workers call this: shards are the server's parallelism.
  static void MarkRunsInline();

 private:
  void WorkerLoop(std::size_t worker_index);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace smiler

#endif  // SMILER_COMMON_THREAD_POOL_H_
