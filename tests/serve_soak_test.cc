#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/manager.h"
#include "obs/metrics.h"
#include "serve/checkpoint.h"
#include "serve/server.h"
#include "store/tiered_store.h"
#include "ts/datasets.h"

namespace smiler {
namespace serve {
namespace {

SmilerConfig TestConfig() {
  SmilerConfig cfg;
  cfg.rho = 4;
  cfg.omega = 8;
  cfg.elv = {16, 24};
  cfg.ekv = {4, 8};
  cfg.initial_cg_steps = 10;
  cfg.online_cg_steps = 2;
  return cfg;
}

// AR keeps the per-request cost small enough that the whole soak stays
// fast under ThreadSanitizer; the GP path is covered by the checkpoint
// round-trip test.
core::MultiSensorManager MakeFleet(int sensors) {
  // One process-lifetime device: the engines hold buffers charged to it,
  // so it must outlive every fleet the test file creates.
  static simgpu::Device device;
  auto data = ts::MakeDataset(
      {ts::DatasetKind::kMall, sensors, 640, 64, 17, true});
  EXPECT_TRUE(data.ok());
  auto manager =
      core::MultiSensorManager::Create(&device, *data, TestConfig(),
                                       core::PredictorKind::kAr);
  EXPECT_TRUE(manager.ok()) << manager.status().ToString();
  return std::move(*manager);
}

std::unique_ptr<PredictionServer> MakeServer(int sensors,
                                             const ServerOptions& options) {
  auto server = PredictionServer::Create(MakeFleet(sensors), options);
  EXPECT_TRUE(server.ok());
  return std::move(*server);
}

// The acceptance soak: >= 4 concurrent client threads hammer sensors 0..6
// with mixed Predict/Observe traffic while the main thread drives sensor 7
// in a deterministic alternation, takes a snapshot mid-run with traffic
// still flowing, restores it into a standalone engine, and checks that the
// server's subsequent sensor-7 predictions are bitwise-identical to the
// restored engine's. Every issued request must be answered (closed-loop
// clients would hang forever on a lost response).
TEST(ServeSoakTest, ConcurrentTrafficWithMidRunSnapshot) {
  ServerOptions options;
  options.num_shards = 4;
  options.queue_capacity = 512;  // closed-loop clients never fill this
  auto server = MakeServer(/*sensors=*/8, options);
  ASSERT_EQ(server->num_shards(), 4);

  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 60;
  std::atomic<std::uint64_t> ok_count{0}, answered{0};
  std::atomic<bool> fail{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int op = 0; op < kOpsPerClient; ++op) {
        const std::size_t sensor = (c * 31 + op) % 7;  // never sensor 7
        Response r;
        if (op % 3 == 2) {
          r = server->AsyncObserve(sensor, std::sin(0.1 * op + c)).get();
        } else {
          r = server->AsyncPredict(sensor).get();
        }
        answered.fetch_add(1);
        if (r.status.ok()) {
          ok_count.fetch_add(1);
        } else {
          fail.store(true);  // generous queue + live server: all must be OK
        }
      }
    });
  }

  // Deterministic foreground stream on sensor 7 (strict alternation, ends
  // on Observe so the snapshot is taken between steps).
  auto drive = [&](int step) {
    auto pred = server->Predict(7);
    EXPECT_TRUE(pred.ok());
    EXPECT_TRUE(server->Observe(7, std::sin(0.05 * step)).ok());
    return *pred;
  };
  for (int step = 0; step < 15; ++step) drive(step);

  // Mid-run snapshot: the shard quiesces at a batch boundary; the other
  // shards keep serving the client threads throughout.
  auto snaps = server->Snapshot();
  ASSERT_TRUE(snaps.ok()) << snaps.status().ToString();
  ASSERT_EQ(snaps->size(), 8u);
  simgpu::Device restore_device;
  auto restored = core::SensorEngine::Restore(&restore_device, (*snaps)[7]);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  for (int step = 15; step < 45; ++step) {
    auto server_pred = server->Predict(7);
    auto local_pred = restored->Predict();
    ASSERT_TRUE(server_pred.ok());
    ASSERT_TRUE(local_pred.ok());
    EXPECT_EQ(server_pred->mean, local_pred->mean) << "step " << step;
    EXPECT_EQ(server_pred->variance, local_pred->variance) << "step " << step;
    const double v = std::sin(0.05 * step);
    ASSERT_TRUE(server->Observe(7, v).ok());
    ASSERT_TRUE(restored->Observe(v).ok());
  }

  for (auto& t : clients) t.join();
  EXPECT_EQ(answered.load(), kClients * kOpsPerClient);  // zero lost responses
  EXPECT_FALSE(fail.load());
  EXPECT_EQ(ok_count.load(), kClients * kOpsPerClient);
  server->Shutdown();
}

// Full queues must reject immediately with ResourceExhausted — clients
// never block on admission and every future (accepted or rejected) is
// answered.
TEST(ServeSoakTest, FullQueueRejectsWithoutBlocking) {
  ServerOptions options;
  options.num_shards = 1;
  options.queue_capacity = 2;
  auto server = MakeServer(/*sensors=*/2, options);

  constexpr int kClients = 4;
  constexpr int kPerClient = 50;
  std::atomic<std::uint64_t> ok_count{0}, rejected{0}, other{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      std::vector<std::future<Response>> inflight;
      inflight.reserve(kPerClient);
      for (int op = 0; op < kPerClient; ++op) {
        inflight.push_back(server->AsyncPredict(op % 2));  // open loop
      }
      for (auto& f : inflight) {
        const Status st = f.get().status;
        if (st.ok()) {
          ok_count.fetch_add(1);
        } else if (st.code() == StatusCode::kResourceExhausted) {
          rejected.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok_count.load() + rejected.load() + other.load(),
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_GT(ok_count.load(), 0u);
  EXPECT_GT(rejected.load(), 0u);  // capacity 2 vs a 200-request flood
  EXPECT_EQ(other.load(), 0u);
  server->Shutdown();
  // Depth gauges must return to zero once everything is answered.
  for (int s = 0; s < server->num_shards(); ++s) {
    EXPECT_EQ(obs::Registry::Global()
                  .GetGauge("serve.shard" + std::to_string(s) + ".queue_depth")
                  .value(),
              0.0);
  }
}

TEST(ServeSoakTest, ExpiredDeadlineIsShedBeforeExecution) {
  ServerOptions options;
  options.num_shards = 1;
  auto server = MakeServer(/*sensors=*/1, options);
  static obs::Counter& shed =
      obs::Registry::Global().GetCounter("serve.deadline_expired");
  const std::uint64_t before = shed.value();
  Response r =
      server->AsyncPredict(0, Clock::now() - std::chrono::seconds(1)).get();
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(shed.value(), before);
  // A sane deadline still succeeds.
  EXPECT_TRUE(
      server->Predict(0, Clock::now() + std::chrono::minutes(5)).ok());
}

// Back-to-back Predicts with no intervening Observe must agree: either
// coalesced into one engine pass or recomputed on unchanged state, the
// answer is the same.
TEST(ServeSoakTest, PredictBurstIsConsistent) {
  ServerOptions options;
  options.num_shards = 1;
  auto server = MakeServer(/*sensors=*/1, options);
  std::vector<std::future<Response>> burst;
  for (int i = 0; i < 16; ++i) burst.push_back(server->AsyncPredict(0));
  Response first = burst[0].get();
  ASSERT_TRUE(first.status.ok());
  for (std::size_t i = 1; i < burst.size(); ++i) {
    Response r = burst[i].get();
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.prediction.mean, first.prediction.mean);
    EXPECT_EQ(r.prediction.variance, first.prediction.variance);
  }
}

// Coalescing holds across micro-batches: a blocking Predict, then a
// second one (necessarily claimed in a later batch), then an Observe. The
// repeat is answered from the cache, leaves no second pending forecast,
// and the Observe updates the ensemble once — bitwise like one engine
// driven sequentially under the coalescing contract.
TEST(ServeSoakTest, RepeatedPredictAcrossBatchesUpdatesEnsembleOnce) {
  ServerOptions options;
  options.num_shards = 1;
  auto server = MakeServer(/*sensors=*/1, options);
  core::MultiSensorManager reference = MakeFleet(/*sensors=*/1);
  core::SensorEngine& ref = reference.engine(0);
  obs::Counter& coalesced =
      obs::Registry::Global().GetCounter("serve.batch.coalesced_predicts");
  const std::uint64_t coalesced_before = coalesced.value();

  std::vector<predictors::Prediction> served;
  for (int round = 0; round < 3; ++round) {
    auto first = server->Predict(0);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    auto repeat = server->Predict(0);
    ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
    served.push_back(*first);
    served.push_back(*repeat);
    ASSERT_TRUE(server->Observe(0, 0.1 * round).ok());
  }
  server->Shutdown();
  EXPECT_EQ(coalesced.value() - coalesced_before, 3u);

  std::vector<predictors::Prediction> want;
  for (int round = 0; round < 3; ++round) {
    auto pred = ref.Predict();
    ASSERT_TRUE(pred.ok()) << pred.status().ToString();
    want.push_back(*pred);
    want.push_back(*pred);  // the repeat gets the previous answer
    ASSERT_TRUE(ref.Observe(0.1 * round).ok());
  }
  ASSERT_EQ(served.size(), want.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].mean, want[i].mean) << "prediction " << i;
    EXPECT_EQ(served[i].variance, want[i].variance) << "prediction " << i;
  }
  const core::EngineSnapshot got = server->engine(0).Snapshot();
  const core::EngineSnapshot exp = ref.Snapshot();
  EXPECT_EQ(got.pending.size(), exp.pending.size());
  ASSERT_EQ(got.ensemble.cells.size(), exp.ensemble.cells.size());
  for (std::size_t c = 0; c < got.ensemble.cells.size(); ++c) {
    EXPECT_EQ(got.ensemble.cells[c].weight, exp.ensemble.cells[c].weight)
        << "cell " << c;
    EXPECT_EQ(got.ensemble.cells[c].counter, exp.ensemble.cells[c].counter)
        << "cell " << c;
  }
  EXPECT_EQ(got.ensemble.z_ewma, exp.ensemble.z_ewma);
  EXPECT_EQ(got.ensemble.vif, exp.ensemble.vif);
}

// A coalesced answer still counts as a use of its sensor for the tiered
// store: the shard pins the sensor beside the cached answer, as an engine
// pass would, so the store's clock sweep does not take a sensor that is
// only being predicted for an idle one. With a 1-byte budget every batch
// end spills the sensor, so that pin is a rehydration.
TEST(ServeSoakTest, CoalescedPredictPinsItsSensor) {
  std::unique_ptr<store::TieredStateStore> tiered;  // outlives the server
  ServerOptions options;
  options.num_shards = 1;
  auto server = MakeServer(/*sensors=*/2, options);
  store::StoreOptions store_options;
  store_options.dir = testing::TempDir() + "/smiler_serve_soak_store_" +
                      std::to_string(::getpid());
  (void)std::system(("rm -rf '" + store_options.dir + "'").c_str());
  store_options.budget_bytes = 1;
  auto store_or = store::TieredStateStore::Create(store_options);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  tiered = std::move(*store_or);
  ASSERT_TRUE(server->AttachStore(tiered.get()).ok());
  obs::Counter& rehydrations =
      obs::Registry::Global().GetCounter("store.rehydrations");

  auto first = server->Predict(0);  // engine pass; the batch end spills
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const std::uint64_t before = rehydrations.value();
  auto repeat = server->Predict(0);  // coalesced, in a later batch
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  EXPECT_EQ(repeat->mean, first->mean);
  EXPECT_EQ(repeat->variance, first->variance);
  EXPECT_EQ(rehydrations.value(), before + 1);
  server->Shutdown();
  (void)std::system(("rm -rf '" + store_options.dir + "'").c_str());
}

TEST(ServeSoakTest, ShutdownDrainsThenRejects) {
  ServerOptions options;
  options.num_shards = 2;
  auto server = MakeServer(/*sensors=*/4, options);
  std::vector<std::future<Response>> inflight;
  for (int i = 0; i < 32; ++i) inflight.push_back(server->AsyncPredict(i % 4));
  server->Shutdown();
  for (auto& f : inflight) {
    const Status st = f.get().status;  // drained: answered, not dropped
    EXPECT_TRUE(st.ok() || st.code() == StatusCode::kResourceExhausted)
        << st.ToString();
  }
  EXPECT_EQ(server->Predict(0).status().code(),
            StatusCode::kFailedPrecondition);
  server->Shutdown();  // idempotent
}

TEST(ServeSoakTest, UnknownSensorIsInvalidArgument) {
  auto server = MakeServer(/*sensors=*/2, {});
  EXPECT_EQ(server->Predict(99).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ServeSoakTest, SaveCheckpointUnderTraffic) {
  ServerOptions options;
  options.num_shards = 2;
  auto server = MakeServer(/*sensors=*/4, options);
  std::atomic<bool> stop{false};
  std::thread client([&] {
    int op = 0;
    while (!stop.load()) {
      server->AsyncPredict(op % 4).get();
      server->AsyncObserve(op % 4, std::sin(0.2 * op)).get();
      ++op;
    }
  });
  const std::string path = testing::TempDir() + "/smiler_serve_soak_ckpt_" +
                           std::to_string(::getpid()) + ".bin";
  EXPECT_TRUE(server->SaveCheckpoint(path).ok());
  stop.store(true);
  client.join();
  auto loaded = Checkpoint::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 4u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace smiler
