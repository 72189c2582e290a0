// One level of parallelism on the serve path: a thread flagged as running
// inline (a pool worker or a serve shard) runs every ParallelFor iteration
// itself, sizes native kernels to one strip, and drains task graphs
// alone — so a sharded server never queues work on the shared pool.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/task_graph.h"
#include "common/thread_pool.h"
#include "core/manager.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "simgpu/backend.h"
#include "simgpu/device.h"
#include "ts/datasets.h"

namespace smiler {
namespace {

/// Runs \p fn on a fresh thread flagged with ThreadPool::MarkRunsInline.
template <typename Fn>
void OnInlineThread(Fn fn) {
  std::thread t([&fn] {
    ThreadPool::MarkRunsInline();
    fn();
  });
  t.join();
}

TEST(ThreadPoolInlineTest, InlineThreadRunsEveryIterationInPlace) {
  EXPECT_FALSE(ThreadPool::RunsInline());
  OnInlineThread([] {
    EXPECT_TRUE(ThreadPool::RunsInline());
    const std::thread::id self = std::this_thread::get_id();
    std::vector<std::size_t> order;
    std::vector<std::thread::id> ran_on;
    ThreadPool::Default().ParallelFor(257, [&](std::size_t i) {
      order.push_back(i);  // unsynchronized on purpose: one thread only
      ran_on.push_back(std::this_thread::get_id());
    });
    ASSERT_EQ(order.size(), 257u);
    for (std::size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(order[i], i);
      EXPECT_EQ(ran_on[i], self);
    }
  });
}

TEST(ThreadPoolInlineTest, NativeParallelismIsOneOnInlineThread) {
  ThreadPool& pool = ThreadPool::Default();
  simgpu::NativeContext caller(&pool, 8, 32);
  EXPECT_EQ(caller.parallelism(), pool.size() + 1);
  OnInlineThread([&pool] {
    simgpu::NativeContext nctx(&pool, 8, 32);
    EXPECT_EQ(nctx.parallelism(), 1u);
  });
  // Pool workers run inline too.
  std::promise<std::size_t> worker_parallelism;
  pool.Submit([&pool, &worker_parallelism] {
    simgpu::NativeContext nctx(&pool, 8, 32);
    worker_parallelism.set_value(nctx.parallelism());
  });
  EXPECT_EQ(worker_parallelism.get_future().get(), 1u);
}

TEST(ThreadPoolInlineTest, TaskGraphOnInlineThreadEnlistsNoHelpers) {
  obs::Counter& submitted =
      obs::Registry::Global().GetCounter("threadpool.submitted");
  OnInlineThread([&submitted] {
    const std::uint64_t before = submitted.value();
    const std::thread::id self = std::this_thread::get_id();
    TaskGraph graph;
    std::vector<std::thread::id> ran_on(16);
    // 16 independent roots: off an inline thread every PushReady past
    // the first would enlist a helper.
    for (std::size_t i = 0; i < ran_on.size(); ++i) {
      graph.AddNode("node", [&ran_on, i] {
        ran_on[i] = std::this_thread::get_id();
        return Status::OK();
      });
    }
    ASSERT_TRUE(graph.Run().ok());
    EXPECT_EQ(submitted.value(), before);
    for (const std::thread::id& id : ran_on) EXPECT_EQ(id, self);
  });
}

SmilerConfig InlineConfig() {
  SmilerConfig cfg;
  cfg.rho = 4;
  cfg.omega = 8;
  cfg.elv = {16, 24};
  cfg.ekv = {4, 8};
  cfg.initial_cg_steps = 10;
  cfg.online_cg_steps = 2;
  return cfg;
}

struct InlineCase {
  simgpu::BackendKind backend;
  core::PredictorKind kind;
};

class ServeInlineTest : public testing::TestWithParam<InlineCase> {};

// While a 4-shard server serves Predict and Observe, the shared pool
// stays idle: no submitted task and no fanned-out ParallelFor. Set-up
// (index Build from this thread) may use the pool; serving may not.
TEST_P(ServeInlineTest, ShardsNeverTouchThePool) {
  // Declared first: outlives the fleet charged against it.
  simgpu::Device device(6ULL << 30, 64ULL << 10, nullptr, GetParam().backend);
  auto data =
      ts::MakeDataset({ts::DatasetKind::kMall, 8, 640, 64, 23, true});
  ASSERT_TRUE(data.ok());
  auto manager = core::MultiSensorManager::Create(&device, *data,
                                                  InlineConfig(),
                                                  GetParam().kind);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  serve::ServerOptions options;
  options.num_shards = 4;
  auto server = serve::PredictionServer::Create(std::move(*manager), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_EQ((*server)->num_shards(), 4);

  obs::Registry& reg = obs::Registry::Global();
  obs::Counter& submitted = reg.GetCounter("threadpool.submitted");
  obs::Histogram& for_seconds =
      reg.GetHistogram("threadpool.parallel_for_seconds");
  const std::uint64_t submitted_before = submitted.value();
  const std::uint64_t for_before = for_seconds.Snap().count;

  constexpr int kClients = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int op = 0; op < 6; ++op) {
        const std::size_t sensor = (c + op * kClients) % 8;
        if (!(*server)->AsyncPredict(sensor).get().status.ok()) ++failures;
        if (!(*server)
                 ->AsyncObserve(sensor, std::sin(0.3 * op + c))
                 .get()
                 .status.ok()) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  (*server)->Shutdown();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(submitted.value(), submitted_before);
  EXPECT_EQ(for_seconds.Snap().count, for_before);
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndPredictors, ServeInlineTest,
    testing::Values(InlineCase{simgpu::BackendKind::kSimGrid,
                               core::PredictorKind::kAr},
                    InlineCase{simgpu::BackendKind::kNative,
                               core::PredictorKind::kAr},
                    InlineCase{simgpu::BackendKind::kSimGrid,
                               core::PredictorKind::kGp},
                    InlineCase{simgpu::BackendKind::kNative,
                               core::PredictorKind::kGp}),
    [](const testing::TestParamInfo<InlineCase>& info) {
      return std::string(simgpu::BackendKindName(info.param.backend)) +
             (info.param.kind == core::PredictorKind::kAr ? "Ar" : "Gp");
    });

}  // namespace
}  // namespace smiler
