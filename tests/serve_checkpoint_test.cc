#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "serve/checkpoint.h"
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

ts::TimeSeries MakeSensor(int points, int seed = 11) {
  auto data = ts::MakeDataset({ts::DatasetKind::kMall, 1, points, 64, seed, true});
  return (*data)[0];
}

std::string TempPath(const char* tag) {
  return testing::TempDir() + "/smiler_ckpt_" + tag + "_" +
         std::to_string(::getpid()) + ".bin";
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// The headline warm-restart guarantee: snapshot a live GP engine mid-stream,
// round-trip the snapshot through the on-disk format, restore, and the
// restored engine must track the original bitwise across >= 50 further
// predict/observe steps (GP covers the warm-start kernel state too).
TEST(CheckpointTest, RestoredEngineIsBitwiseIdentical) {
  simgpu::Device device;
  auto sensor = MakeSensor(800);
  std::vector<double> all = sensor.values();
  const int warmup = 600;
  ts::TimeSeries history("s",
                         std::vector<double>(all.begin(), all.begin() + warmup));
  auto engine = core::SensorEngine::Create(&device, history, TestConfig(),
                                           core::PredictorKind::kGp);
  ASSERT_TRUE(engine.ok());

  // Warm the engine so the snapshot carries non-trivial state: adapted
  // ensemble weights, trained kernels, and a pending (unresolved) forecast
  // from the final Predict with no matching Observe.
  for (int step = 0; step < 12; ++step) {
    ASSERT_TRUE(engine->Predict().ok());
    ASSERT_TRUE(engine->Observe(all[warmup + step]).ok());
  }
  ASSERT_TRUE(engine->Predict().ok());

  const std::string path = TempPath("roundtrip");
  ASSERT_TRUE(Checkpoint::Save(path, {engine->Snapshot()}).ok());
  auto loaded = Checkpoint::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 1u);

  simgpu::Device device2;
  auto restored = core::SensorEngine::Restore(&device2, (*loaded)[0]);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->now(), engine->now());

  for (int step = 12; step < 70; ++step) {
    const double truth = all[warmup + step];
    ASSERT_TRUE(engine->Observe(truth).ok());
    ASSERT_TRUE(restored->Observe(truth).ok());
    auto a = engine->Predict();
    auto b = restored->Predict();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    // Bitwise, not approximate: the snapshot carries the incremental index
    // state verbatim, so both engines execute identical arithmetic.
    EXPECT_EQ(a->mean, b->mean) << "diverged at step " << step;
    EXPECT_EQ(a->variance, b->variance) << "diverged at step " << step;
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, MultiEngineFilesPreserveOrder) {
  simgpu::Device device;
  std::vector<core::EngineSnapshot> snaps;
  for (int i = 0; i < 3; ++i) {
    auto engine = core::SensorEngine::Create(&device, MakeSensor(600, 11 + i),
                                             TestConfig(),
                                             core::PredictorKind::kAr);
    ASSERT_TRUE(engine.ok());
    snaps.push_back(engine->Snapshot());
  }
  const std::string path = TempPath("multi");
  ASSERT_TRUE(Checkpoint::Save(path, snaps).ok());
  auto loaded = Checkpoint::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ((*loaded)[i].index.series, snaps[i].index.series) << i;
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileFails) {
  EXPECT_FALSE(Checkpoint::Load(TempPath("does_not_exist")).ok());
}

TEST(CheckpointTest, BadMagicIsInvalidArgument) {
  const std::string path = TempPath("magic");
  WriteAll(path, "NOTACKPT garbage after the fake magic, long enough");
  auto loaded = Checkpoint::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, VersionMismatchIsFailedPrecondition) {
  simgpu::Device device;
  auto engine = core::SensorEngine::Create(&device, MakeSensor(600),
                                           TestConfig(),
                                           core::PredictorKind::kAr);
  ASSERT_TRUE(engine.ok());
  const std::string path = TempPath("version");
  ASSERT_TRUE(Checkpoint::Save(path, {engine->Snapshot()}).ok());
  std::string bytes = ReadAll(path);
  bytes[8] = static_cast<char>(Checkpoint::kFormatVersion + 1);  // u32 LE
  WriteAll(path, bytes);
  auto loaded = Checkpoint::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(CheckpointTest, PayloadCorruptionFailsChecksum) {
  simgpu::Device device;
  auto engine = core::SensorEngine::Create(&device, MakeSensor(600),
                                           TestConfig(),
                                           core::PredictorKind::kAr);
  ASSERT_TRUE(engine.ok());
  const std::string path = TempPath("corrupt");
  ASSERT_TRUE(Checkpoint::Save(path, {engine->Snapshot()}).ok());
  std::string bytes = ReadAll(path);
  bytes[bytes.size() / 2] ^= 0x5a;  // flip bits deep inside the payload
  WriteAll(path, bytes);
  auto loaded = Checkpoint::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, TruncationIsInvalidArgument) {
  simgpu::Device device;
  auto engine = core::SensorEngine::Create(&device, MakeSensor(600),
                                           TestConfig(),
                                           core::PredictorKind::kAr);
  ASSERT_TRUE(engine.ok());
  const std::string path = TempPath("truncated");
  ASSERT_TRUE(Checkpoint::Save(path, {engine->Snapshot()}).ok());
  std::string bytes = ReadAll(path);
  WriteAll(path, bytes.substr(0, bytes.size() / 3));
  auto loaded = Checkpoint::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, SaveIsAtomicNoTmpLeftBehind) {
  simgpu::Device device;
  auto engine = core::SensorEngine::Create(&device, MakeSensor(600),
                                           TestConfig(),
                                           core::PredictorKind::kAr);
  ASSERT_TRUE(engine.ok());
  const std::string path = TempPath("atomic");
  ASSERT_TRUE(Checkpoint::Save(path, {engine->Snapshot()}).ok());
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace smiler
