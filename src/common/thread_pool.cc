#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/trace.h"

namespace smiler {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

namespace {
thread_local bool t_runs_inline = false;

// Level gauge of queued-but-unclaimed tasks, maintained with atomic
// deltas from every enqueue/dequeue site (Submit, ParallelFor helpers,
// WorkerLoop pops) so it stays truthful between ParallelFor calls — the
// old Set(tasks_.size()) in ParallelFor alone left Submit traffic
// invisible and the value stale once the helpers drained.
obs::Gauge& QueueDepthGauge() {
  static obs::Gauge& g =
      obs::Registry::Global().GetGauge("threadpool.queue_depth");
  return g;
}

// High-water mark of the queue depth since process start (or Reset):
// catches transient convoys that a sampled level gauge misses.
obs::Gauge& QueueHighWaterGauge() {
  static obs::Gauge& g =
      obs::Registry::Global().GetGauge("threadpool.queue_depth_high_water");
  return g;
}

}  // namespace

bool ThreadPool::RunsInline() { return t_runs_inline; }

void ThreadPool::MarkRunsInline() { t_runs_inline = true; }

void ThreadPool::WorkerLoop(std::size_t worker_index) {
  t_runs_inline = true;
  // Self-register with the trace collector so pool workers appear (with a
  // name) in exported traces even when spawned after tracing startup.
  obs::Tracer::Global().RegisterCurrentThread(
      "pool-worker-" + std::to_string(worker_index));
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    QueueDepthGauge().Add(-1.0);
    task();
  }
}

namespace {

// Shared between ParallelFor and its queued helper tasks; kept alive by
// shared_ptr so a helper that starts after the caller returned (all
// iterations were already claimed) still touches valid memory.
struct ForState {
  std::function<void(std::size_t)> fn;
  std::size_t n = 0;
  std::size_t chunk = 1;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> remaining{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;

  void Run() {
    for (;;) {
      const std::size_t begin = next.fetch_add(chunk);
      if (begin >= n) return;
      const std::size_t end = std::min(n, begin + chunk);
      for (std::size_t i = begin; i < end; ++i) fn(i);
      if (remaining.fetch_sub(end - begin) == end - begin) {
        std::lock_guard<std::mutex> lock(done_mu);
        done = true;
        done_cv.notify_one();
      }
    }
  }
};

}  // namespace

void ThreadPool::Submit(std::function<void()> task) {
  static obs::Counter& submitted =
      obs::Registry::Global().GetCounter("threadpool.submitted");
  // Propagate the submitter's request context (if any) across the thread
  // hop so the task's spans and stage time stay attributed to the request.
  if (auto ctx = obs::CurrentRequestContextShared()) {
    task = [ctx = std::move(ctx), inner = std::move(task)] {
      obs::RequestScope scope(ctx, /*owner=*/false);
      inner();
    };
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  QueueDepthGauge().Add(1.0);
  QueueHighWaterGauge().SetMax(QueueDepthGauge().value());
  submitted.Increment();
  cv_.notify_one();
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t num_workers = workers_.size();
  if (n == 1 || num_workers <= 1 || RunsInline()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  obs::Registry& reg = obs::Registry::Global();
  static obs::Histogram& for_seconds =
      reg.GetHistogram("threadpool.parallel_for_seconds");
  static obs::Histogram& task_wait =
      reg.GetHistogram("threadpool.task_wait_seconds");
  WallTimer for_timer;

  auto state = std::make_shared<ForState>();
  state->fn = fn;
  state->n = n;
  // Dynamic chunking: workers repeatedly claim the next chunk so uneven
  // per-iteration costs (e.g. candidate verification) balance out.
  state->chunk = std::max<std::size_t>(1, n / (num_workers * 8));
  state->remaining.store(n);

  const std::size_t helpers = std::min(num_workers, n) - 1;
  const auto enqueued_at = std::chrono::steady_clock::now();
  // Helpers execute the caller's request on other threads: bind them to
  // the caller's context (non-owner) so their spans carry the trace id and
  // their work lands in the context's parallel-time counters. The calling
  // thread participates below under its own (possibly owner) binding.
  std::shared_ptr<obs::RequestContext> ctx =
      obs::CurrentRequestContextShared();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < helpers; ++i) {
      tasks_.push([state, enqueued_at, ctx] {
        obs::RequestScope scope(ctx, /*owner=*/false);
        // The span (not just the binding) is what makes the fan-out
        // visible in exported traces: without it a helper that only runs
        // span-free kernel blocks leaves no trace of having carried the
        // request.
        SMILER_TRACE_SPAN("threadpool.helper");
        task_wait.Observe(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - enqueued_at)
                              .count());
        state->Run();
      });
    }
  }
  QueueDepthGauge().Add(static_cast<double>(helpers));
  QueueHighWaterGauge().SetMax(QueueDepthGauge().value());
  cv_.notify_all();
  // The calling thread participates instead of idling.
  state->Run();
  std::unique_lock<std::mutex> lock(state->done_mu);
  state->done_cv.wait(lock, [&] { return state->done; });
  for_seconds.Observe(for_timer.ElapsedSeconds());
}

ThreadPool& ThreadPool::Default() {
  static ThreadPool pool;
  return pool;
}

}  // namespace smiler
