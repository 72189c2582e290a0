// SMiLer serving benchmark: one run of one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --scratch <dir> [--revision <id>]
//
// A run has three parts.
//   set-up   build the fleet, the PredictionServer (and for tiered
//            workloads the TieredStateStore), and serve every sensor's
//            first Predict. Repeated kSetupReps times; setup_s is the
//            median and the last fleet serves.
//   serve    drive the server through its public Async* API for 1 s of
//            warm-up plus --seconds: a closed loop with one client per
//            core, each sending its own seeded request sequence (see
//            workload.h). Latency is measured at the client.
//   replay   feed a fresh fleet the served request log from one thread
//            through store/core/gp public functions, timing each call,
//            and compare every served prediction bitwise with it.
//
// With --trace 0 the serve phase runs untraced and the last stdout line
// carries the end-to-end metrics. With --trace 1 the first half of the
// serve phase runs untraced, the second half with span tracing on, and
// the last line carries the per-layer metrics (program counters from the
// traced half, the replay's own timings, and the trace overhead).
//
// Spill segments and any other file this run writes live under a fresh
// <scratch>/perfbench-<pid> directory that is removed on exit.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.h"
#include "core/manager.h"
#include "gp/kernel.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "simgpu/backend.h"
#include "simgpu/device.h"
#include "store/tiered_store.h"
#include "workload.h"

#ifndef NDEBUG
#error "perfbench measures optimized code only: build with -DCMAKE_BUILD_TYPE=Release"
#endif

namespace {

using perfbench::Inputs;
using perfbench::Op;
using perfbench::WorkloadSpec;
using smiler::Status;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void Check(const Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string scratch;
  std::string revision = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = std::stoi(value);
    } else if (flag == "--scratch") {
      a.scratch = value;
    } else if (flag == "--revision") {
      a.revision = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || a.seconds <= 0.0 || (a.trace != 0 && a.trace != 1) ||
      a.scratch.empty()) {
    Die("usage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --scratch <dir> [--revision <id>]");
  }
  return a;
}

/// The run's private directory: created fresh, removed on every exit path
/// that returns from main.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent)
      : path_(fs::path(parent) / ("perfbench-" + std::to_string(::getpid()))) {
    std::error_code ec;
    fs::remove_all(path_, ec);
    fs::create_directories(path_, ec);
    if (ec) Die("cannot create scratch directory " + path_.string());
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  std::string Sub(const std::string& name) const { return (path_ / name).string(); }

 private:
  fs::path path_;
};

/// One request as the client saw it.
struct Record {
  std::uint32_t sensor = 0;
  Op op = Op::kPredict;
  bool measured = false;  ///< sent inside the measured window
  bool traced = false;    ///< sent during the traced half (--trace 1)
  double start_s = 0.0;    ///< send time in the phase
  double latency_s = 0.0;  ///< answer time minus start_s
  double enqueue_s = 0.0;  ///< time inside AsyncPredict / AsyncObserve
  bool ok = false;
  smiler::predictors::Prediction prediction;
  bool has_truth = false;
  double truth = 0.0;
  double value = 0.0;  ///< the observed value (Observe)
};

/// The serving fleet of one set-up. The store must outlive the server,
/// so it is declared first (members are destroyed in reverse order).
struct Fleet {
  std::unique_ptr<smiler::store::TieredStateStore> store;
  std::unique_ptr<smiler::serve::PredictionServer> server;
  /// Destroys the server, then the store.
  void Release() {
    server.reset();
    store.reset();
  }
};

smiler::SmilerConfig Config() { return smiler::SmilerConfig{}; }

double GaugeValue(const char* name) {
  return smiler::obs::Registry::Global().GetGauge(name).value();
}

/// Set-ups per run: setup_s is their median; the last one serves.
constexpr int kSetupReps = 3;
/// Serve-phase seconds before the measured window. They bring the hot set
/// into caches and the store and are not measured.
constexpr double kWarmupSeconds = 1.0;

/// Device kernels reported one by one in the traced run.
const char* const kTracedKernels[] = {"gp.gram_batch", "index.append_rows",
                                      "index.group_lower_bound", "index.verify_dtw"};

std::unique_ptr<smiler::store::TieredStateStore> MakeStore(
    const std::string& dir, std::size_t budget) {
  smiler::store::StoreOptions opt;
  opt.dir = dir;
  opt.budget_bytes = budget;  // explicit: SMILER_STORE_BUDGET_BYTES is not consulted
  auto store = smiler::store::TieredStateStore::Create(opt);
  Check(store.status(), "store create");
  return std::move(*store);
}

/// Builds one serving fleet and serves every sensor's first Predict.
/// Returns the set-up records (one per sensor) through \p first.
Fleet SetUp(const WorkloadSpec& spec, const Inputs& in,
            smiler::simgpu::Device* device, int shards, std::size_t budget,
            const std::string& store_dir, std::vector<Record>* first) {
  Fleet fleet;
  auto manager = smiler::core::MultiSensorManager::Create(
      device, in.histories, Config(), spec.predictor);
  Check(manager.status(), "fleet create");
  smiler::serve::ServerOptions options;
  options.num_shards = shards;
  auto server =
      smiler::serve::PredictionServer::Create(std::move(*manager), options);
  Check(server.status(), "server create");
  fleet.server = std::move(*server);
  if (budget > 0) {
    fleet.store = MakeStore(store_dir, budget);
    Check(fleet.server->AttachStore(fleet.store.get()), "attach store");
    std::printf("store: fleet resident bytes at attach %.0f, budget %zu\n",
                GaugeValue("store.resident_bytes"), budget);
  }
  std::vector<std::future<smiler::serve::Response>> futures;
  for (int s = 0; s < spec.sensors; ++s) {
    futures.push_back(fleet.server->AsyncPredict(static_cast<std::size_t>(s)));
  }
  first->assign(static_cast<std::size_t>(spec.sensors), Record{});
  for (int s = 0; s < spec.sensors; ++s) {
    smiler::serve::Response r = futures[static_cast<std::size_t>(s)].get();
    Record& rec = (*first)[static_cast<std::size_t>(s)];
    rec.sensor = static_cast<std::uint32_t>(s);
    rec.op = Op::kPredict;
    rec.ok = r.status.ok();
    rec.prediction = r.prediction;
  }
  if (fleet.store != nullptr) Check(fleet.store->EnforceBudget(), "enforce budget");
  return fleet;
}

// ---------------------------------------------------------------------------
// Program counters, read as deltas over a window.

struct Counters {
  std::map<std::string, double> v;
  double Get(const std::string& name) const {
    auto it = v.find(name);
    return it == v.end() ? 0.0 : it->second;
  }
};

Counters ReadCounters() {
  smiler::obs::Registry& reg = smiler::obs::Registry::Global();
  Counters c;
  for (const std::string& name : reg.CounterNames()) {
    c.v[name] = static_cast<double>(reg.GetCounter(name).value());
  }
  for (const std::string& name : reg.HistogramNames()) {
    const auto snap = reg.GetHistogram(name).Snap();
    c.v[name + ".sum"] = snap.sum;
    c.v[name + ".count"] = static_cast<double>(snap.count);
  }
  return c;
}

double Delta(const Counters& a, const Counters& b, const std::string& name) {
  return b.Get(name) - a.Get(name);
}

void ResetGauge(const char* name) {
  smiler::obs::Registry::Global().GetGauge(name).Reset();
}

struct Usage {
  double cpu_s = 0.0;
  double invol_ctx = 0.0;
};
Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.invol_ctx = static_cast<double>(ru.ru_nivcsw);
  return u;
}

/// Samples the process RSS every few milliseconds while alive.
class RssSampler {
 public:
  RssSampler() : thread_([this] { Loop(); }) {}
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  std::size_t Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return peak_;
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      peak_ = std::max(peak_, smiler::obs::ReadProcessRssBytes());
      cv_.wait_for(lock, std::chrono::milliseconds(5), [this] { return stop_; });
    }
    peak_ = std::max(peak_, smiler::obs::ReadProcessRssBytes());
  }
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::size_t peak_ = 0;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Serve phase.

/// When things happen in the serve phase, in seconds from its start. The
/// first warmup_s seconds only bring the hot set into the cache and are
/// not measured; the measured window [warmup_s, warmup_s + seconds) is
/// split in halves, the second of which is traced under --trace 1.
struct Timeline {
  double warmup_s = 0.0;
  double seconds = 0.0;
  bool trace = false;
  double half() const { return warmup_s + seconds / 2.0; }
  double end() const { return warmup_s + seconds; }
  Clock::time_point At(Clock::time_point t0, double s) const {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  }
  /// Tags \p rec by its start time.
  void Tag(Record* rec) const {
    rec->measured = rec->start_s >= warmup_s && rec->start_s < end();
    rec->traced = trace && rec->measured && rec->start_s >= half();
  }
};

/// What the serve phase hands to the metric code besides the records.
struct ServeWindow {
  Counters traced_begin, traced_end;
  Usage usage_begin, usage_end;
  std::size_t rss_peak = 0;
  bool requests_exhausted = false;
};

/// Under --trace 1, switches span tracing on at the midpoint of the
/// measured window and snapshots the program counters there.
void RunTraceSwitch(const Timeline& tl, Clock::time_point t0, ServeWindow* w) {
  if (!tl.trace) return;
  std::this_thread::sleep_until(tl.At(t0, tl.half()));
  ResetGauge("threadpool.queue_depth_high_water");
  ResetGauge("store.resident_bytes_high_water");
  w->traced_begin = ReadCounters();
  w->usage_begin = ReadUsage();
  smiler::obs::Tracer::Global().Start();
}

/// Runs one client per core, each sending its own request sequence back to
/// back, and returns every request in send order.
std::vector<Record> Serve(const Inputs& in, smiler::serve::PredictionServer* server,
                          const Timeline& tl, ServeWindow* w) {
  const std::size_t clients = in.requests.size();
  std::vector<std::vector<Record>> per_client(clients);
  std::atomic<bool> exhausted{false};
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end = tl.At(t0, tl.end());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<Record>& out = per_client[c];
      // Observations each sensor has received; a client owns its sensors,
      // so no other thread touches their counts.
      std::vector<std::size_t> observed(in.streams.size(), 0);
      for (const perfbench::Request& req : in.requests[c]) {
        const Clock::time_point a = Clock::now();
        if (a >= end) return;
        const std::vector<double>& stream = in.streams[req.sensor];
        std::size_t& j = observed[req.sensor];
        Record rec;
        rec.sensor = req.sensor;
        rec.op = req.op;
        rec.start_s = Seconds(a - t0);
        tl.Tag(&rec);
        auto fut = req.op == Op::kPredict ? server->AsyncPredict(req.sensor)
                                          : server->AsyncObserve(req.sensor, stream[j]);
        const Clock::time_point b = Clock::now();
        smiler::serve::Response r = fut.get();
        rec.latency_s = Seconds(Clock::now() - a);
        rec.enqueue_s = Seconds(b - a);
        rec.ok = r.status.ok();
        if (req.op == Op::kPredict) {
          rec.prediction = r.prediction;
          // The forecast targets the sensor's next observation.
          rec.has_truth = j < stream.size();
          if (rec.has_truth) rec.truth = stream[j];
        } else {
          rec.value = stream[j++];
        }
        out.push_back(rec);
      }
      exhausted = true;
    });
  }
  RunTraceSwitch(tl, t0, w);
  for (std::thread& t : threads) t.join();
  std::vector<Record> all;
  for (auto& v : per_client) all.insert(all.end(), v.begin(), v.end());
  // Replay order: by send time. A sensor's requests never overlap, so
  // this keeps every sensor's own served order.
  std::stable_sort(all.begin(), all.end(), [](const Record& a, const Record& b) {
    return a.start_s < b.start_s;
  });
  w->requests_exhausted = exhausted;
  return all;
}

// ---------------------------------------------------------------------------
// Replay: the sequential reference and the per-call layer timings.

struct ReplayResult {
  std::size_t predictions_compared = 0;
  std::size_t wrong = 0;          ///< served prediction differs bitwise
  std::size_t wrong_unexposed = 0;  ///< ... on a sensor the known coalescing gap cannot explain
  std::size_t exposed = 0;        ///< predictions after a repeated Predict
  std::size_t requests = 0;       ///< timed requests replayed
  std::size_t engine_predicts = 0;
  std::size_t observes = 0;
  std::size_t pins = 0;
  std::size_t budget_sweeps = 0;
  double seconds = 0.0;  ///< wall time of the timed replay
  double begin_predict_s = 0.0, gram_s = 0.0, finish_predict_s = 0.0;
  double observe_s = 0.0, pin_s = 0.0, enforce_s = 0.0;
  std::vector<double> pin_samples;
  Counters begin, end;
};

bool SameBits(const smiler::predictors::Prediction& a,
              const smiler::predictors::Prediction& b) {
  return std::memcmp(&a.mean, &b.mean, sizeof(double)) == 0 &&
         std::memcmp(&a.variance, &b.variance, sizeof(double)) == 0;
}

ReplayResult Replay(const WorkloadSpec& spec, const Inputs& in,
                    smiler::simgpu::Device* device, std::size_t budget,
                    const std::string& store_dir,
                    const std::vector<Record>& first,
                    const std::vector<Record>& served) {
  ReplayResult out;
  auto manager = smiler::core::MultiSensorManager::Create(
      device, in.histories, Config(), spec.predictor);
  Check(manager.status(), "replay fleet create");
  std::unique_ptr<smiler::store::TieredStateStore> store;
  if (budget > 0) {
    store = MakeStore(store_dir, budget);
    Check(store->Bind(&*manager, device), "replay store bind");
    Check(store->EnforceBudget(), "replay enforce budget");
  }
  const std::size_t n = static_cast<std::size_t>(spec.sensors);
  std::vector<smiler::predictors::Prediction> previous(n);
  std::vector<bool> observed_since(n, true);  // no Predict answered yet
  std::vector<bool> exposed(n, false);

  auto replay_one = [&](const Record& rec, bool timed) {
    const std::size_t s = rec.sensor;
    Clock::time_point a = Clock::now();
    if (store != nullptr) {
      Check(store->Pin(s), "replay pin");
      const double dt = Seconds(Clock::now() - a);
      if (timed) {
        out.pin_s += dt;
        out.pin_samples.push_back(dt);
        ++out.pins;
      }
    }
    smiler::core::SensorEngine& engine = manager->engine(s);
    if (rec.op == Op::kObserve) {
      a = Clock::now();
      Check(engine.Observe(rec.value), "replay observe");
      if (timed) {
        out.observe_s += Seconds(Clock::now() - a);
        ++out.observes;
      }
      observed_since[s] = true;
    } else {
      smiler::predictors::Prediction expected = previous[s];
      if (!observed_since[s]) {
        // Coalescing contract: a Predict with no Observe since the
        // sensor's previous Predict gets the previous answer.
        exposed[s] = true;
      } else {
        a = Clock::now();
        auto pending = engine.BeginPredict();
        Check(pending.status(), "replay begin predict");
        const Clock::time_point b = Clock::now();
        std::vector<smiler::gp::GramBatchJob> jobs;
        for (auto& column : pending->columns) {
          if (column.x.rows() == 0) continue;
          jobs.push_back(smiler::gp::GramBatchJob{&column.x, &column.gram});
        }
        Clock::time_point c = b;
        if (!jobs.empty()) {
          pending->grams_ready =
              smiler::gp::PairwiseSquaredDistancesOnDeviceBatch(engine.device(), jobs)
                  .ok();
          c = Clock::now();
        }
        auto pred = engine.FinishPredict(std::move(*pending));
        Check(pred.status(), "replay finish predict");
        const Clock::time_point d = Clock::now();
        if (timed) {
          out.begin_predict_s += Seconds(b - a);
          out.gram_s += Seconds(c - b);
          out.finish_predict_s += Seconds(d - c);
          ++out.engine_predicts;
        }
        expected = *pred;
        previous[s] = expected;
        observed_since[s] = false;
      }
      ++out.predictions_compared;
      if (exposed[s]) ++out.exposed;
      if (!SameBits(expected, rec.prediction)) {
        ++out.wrong;
        if (!exposed[s]) ++out.wrong_unexposed;
      }
    }
    if (store != nullptr) {
      store->Unpin(s);
      a = Clock::now();
      Check(store->EnforceBudget(), "replay enforce budget");
      if (timed) {
        out.enforce_s += Seconds(Clock::now() - a);
        ++out.budget_sweeps;
      }
    }
  };

  for (const Record& rec : first) replay_one(rec, false);
  out.begin = ReadCounters();
  const Clock::time_point t0 = Clock::now();
  for (const Record& rec : served) {
    if (!rec.ok) continue;  // the server did not apply it
    replay_one(rec, true);
    ++out.requests;
  }
  out.seconds = Seconds(Clock::now() - t0);
  out.end = ReadCounters();
  return out;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

double Median(std::vector<double> v) { return perfbench::ExactQuantile(std::move(v), 0.5); }

}  // namespace

int main(int argc, char** argv) {
  // Hermetic environment: the native backend, no metric or trace dumps,
  // no live stats endpoint, and no store budget from the environment.
  for (const char* var : {"SMILER_METRICS", "SMILER_TRACE", "SMILER_STATS_PORT",
                          "SMILER_STORE_BUDGET_BYTES", "SMILER_TRACE_BUFFER_SPANS"}) {
    ::unsetenv(var);
  }
  ::setenv("SMILER_BACKEND", "native", 1);
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    Die(std::string("refusing to measure a '") + PERFBENCH_BUILD_TYPE +
        "' build; configure with -DCMAKE_BUILD_TYPE=Release");
  }

  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec_ptr = perfbench::FindWorkload(args.workload);
  if (spec_ptr == nullptr) Die("unknown workload " + args.workload);
  const WorkloadSpec& spec = *spec_ptr;
  const bool trace = args.trace == 1;

  auto backend = smiler::simgpu::BackendKindFromEnv();
  Check(backend.status(), "backend");
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const int shards = static_cast<int>(std::min(nproc, 4u));
  std::printf(
      "{\"perfbench_run\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %u, \"shards\": %d, \"backend\": %s, "
      "\"build_type\": %s, \"compiler\": %s, \"revision\": %s}}\n",
      Quote(spec.name).c_str(), static_cast<unsigned long long>(args.seed),
      JsonNumber(args.seconds).c_str(), args.trace, nproc, shards,
      Quote(smiler::simgpu::BackendKindName(*backend)).c_str(),
      Quote(PERFBENCH_BUILD_TYPE).c_str(), Quote(PERFBENCH_COMPILER).c_str(),
      Quote(args.revision).c_str());
  std::fflush(stdout);

  ScratchDir scratch(args.scratch);
  Timeline tl;
  tl.warmup_s = kWarmupSeconds;
  tl.seconds = args.seconds;
  tl.trace = trace;
  // One client per core, at most one per sensor.
  const int clients = std::min(static_cast<int>(nproc), spec.sensors);
  const Inputs in = perfbench::MakeInputs(spec, args.seed, clients);
  smiler::simgpu::Device device;
  const std::size_t budget = spec.store_budget_bytes;

  // ---- set-up ----
  std::vector<double> setup_times;
  Fleet fleet;
  std::vector<Record> first;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fleet.Release();  // the previous repetition's fleet goes first
    const Clock::time_point a = Clock::now();
    fleet = SetUp(spec, in, &device, shards, budget,
                  scratch.Sub("serve-store-" + std::to_string(rep)), &first);
    setup_times.push_back(Seconds(Clock::now() - a));
  }

  // ---- serve ----
  ServeWindow window;
  std::vector<Record> served;
  {
    RssSampler rss;
    served = Serve(in, fleet.server.get(), tl, &window);
    window.rss_peak = rss.Stop();
    if (trace) {
      window.traced_end = ReadCounters();
      window.usage_end = ReadUsage();
      smiler::obs::Tracer::Global().Stop();
    }
  }
  const double store_high_water = GaugeValue("store.resident_bytes_high_water");
  const double pool_high_water = GaugeValue("threadpool.queue_depth_high_water");
  fleet.Release();

  // ---- replay ----
  const Clock::time_point replay_start = Clock::now();
  const ReplayResult rep =
      Replay(spec, in, &device, budget, scratch.Sub("replay-store"), first, served);
  std::printf("phases: setup %zu x %.3f s (median), serve %.3f s, replay %.3f s\n",
              setup_times.size(), Median(setup_times), tl.end(),
              Seconds(Clock::now() - replay_start));

  // ---- end-to-end figures ----
  std::vector<double> predict_lat, observe_lat;
  std::size_t attempted = 0, failed = 0, ok_requests = 0;
  std::size_t traced_ok = 0, untraced_ok = 0;
  double abs_err = 0.0;
  std::size_t scored = 0;
  bool finite = true;
  for (const Record& r : first) {
    ++attempted;
    if (!r.ok) ++failed;
  }
  for (const Record& r : served) {
    ++attempted;
    if (!r.ok) {
      ++failed;
      continue;
    }
    if (!r.measured) continue;  // warm-up
    ++ok_requests;
    (r.traced ? traced_ok : untraced_ok) += 1;
    (r.op == Op::kPredict ? predict_lat : observe_lat).push_back(r.latency_s);
    if (r.op == Op::kPredict) {
      finite = finite && std::isfinite(r.prediction.mean) &&
               std::isfinite(r.prediction.variance);
      if (r.has_truth) {
        abs_err += std::fabs(r.prediction.mean - r.truth);
        ++scored;
      }
    }
  }
  const double throughput = static_cast<double>(ok_requests) / tl.seconds;
  const double mae = scored > 0 ? abs_err / static_cast<double>(scored) : 0.0;
  const double failed_share = static_cast<double>(failed) / static_cast<double>(attempted);
  const double wrong_share =
      rep.predictions_compared > 0
          ? static_cast<double>(rep.wrong) / static_cast<double>(rep.predictions_compared)
          : 0.0;
  const double setup_s = Median(setup_times);

  std::printf("workload %s seed %llu: %zu requests attempted, %zu failed, "
              "%zu predictions replayed, %zu differ (%zu after a repeated "
              "Predict), %zu exposed to the coalescing gap\n",
              spec.name, static_cast<unsigned long long>(args.seed), attempted,
              failed, rep.predictions_compared, rep.wrong,
              rep.wrong - rep.wrong_unexposed, rep.exposed);
  for (const auto& [name, lat] : {std::pair<const char*, const std::vector<double>*>{
                                       "predict", &predict_lat},
                                   {"observe", &observe_lat}}) {
    const double top = perfbench::HighestSupportedPercentile(lat->size());
    std::printf("%s latency: n=%zu p50=%.6g s p99=%.6g s; highest supported "
                "percentile p%g = %.6g s\n",
                name, lat->size(), perfbench::ExactQuantile(*lat, 0.50),
                perfbench::ExactQuantile(*lat, 0.99), top,
                perfbench::ExactQuantile(*lat, top / 100.0));
  }

  std::vector<std::string> problems;
  if (window.requests_exhausted) problems.push_back("a client ran out of requests");
  if (!finite) problems.push_back("a served prediction is not finite");
  if (rep.wrong_unexposed > 0) {
    problems.push_back("served predictions differ bitwise from the sequential replay");
  }
  if (!(mae > 0.0 && mae < 10.0)) problems.push_back("MAE out of range");
  if (!perfbench::PercentileSupported(predict_lat.size(), 99) ||
      !perfbench::PercentileSupported(observe_lat.size(), 99)) {
    problems.push_back("too few samples for a p99");
  }
  for (const std::string& p : problems) std::printf("CHECK FAILED: %s\n", p.c_str());

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"throughput_rps", throughput, "1/s"},
        {"predict_p50_s", perfbench::ExactQuantile(predict_lat, 0.50), "s"},
        {"predict_p99_s", perfbench::ExactQuantile(predict_lat, 0.99), "s"},
        {"observe_p50_s", perfbench::ExactQuantile(observe_lat, 0.50), "s"},
        {"observe_p99_s", perfbench::ExactQuantile(observe_lat, 0.99), "s"},
        {"mae", mae, "z"},
        {"setup_s", setup_s, "s"},
        {"rss_peak_bytes", static_cast<double>(window.rss_peak), "bytes"},
    };
  } else {
    const Counters& A = window.traced_begin;
    const Counters& B = window.traced_end;
    auto d = [&](const std::string& name) { return Delta(A, B, name); };
    auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
    const double traced_rps = static_cast<double>(traced_ok) / (tl.seconds / 2.0);
    const double untraced_rps = static_cast<double>(untraced_ok) / (tl.seconds / 2.0);
    std::size_t traced_predicts = 0, traced_requests = 0;
    std::vector<double> enqueue;
    for (const Record& r : served) {
      if (!r.traced || !r.ok) continue;
      ++traced_requests;
      if (r.op == Op::kPredict) ++traced_predicts;
      enqueue.push_back(r.enqueue_s);
    }
    auto rd = [&](const std::string& name) { return Delta(rep.begin, rep.end, name); };
    const double rpred = static_cast<double>(rep.engine_predicts);
    const double robs = static_cast<double>(rep.observes);
    const double cand_total = rd("index.candidates_total");
    const double cand_verified = rd("index.candidates_verified");
    double launches = 0.0;
    for (const auto& [name, value] : B.v) {
      if (name.rfind("simgpu.kernel.", 0) == 0 && name.size() > 9 &&
          name.compare(name.size() - 9, 9, ".launches") == 0) {
        launches += value - A.Get(name);
      }
    }
    // Every kernel's share of kernel time in the traced half (human
    // readable; the result line carries kTracedKernels).
    double kernel_total = 0.0;
    std::vector<std::pair<std::string, double>> kernels;
    for (const auto& [name, value] : B.v) {
      const std::string suffix = ".block_seconds.sum";
      if (name.rfind("simgpu.kernel.", 0) == 0 && name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
        const double s = value - A.Get(name);
        kernels.emplace_back(name.substr(14, name.size() - 14 - suffix.size()), s);
        kernel_total += s;
      }
    }
    for (const auto& [name, s] : kernels) {
      if (s > 0.0) std::printf("kernel %-28s %.4f s (%.1f%%)\n", name.c_str(), s,
                               100.0 * s / kernel_total);
    }
    const double seq_rps = ratio(static_cast<double>(rep.requests), rep.seconds);
    metrics = {
        {"serve.enqueue_s.p50", perfbench::ExactQuantile(enqueue, 0.5), "s"},
        {"serve.batch_size.mean",
         ratio(d("serve.batch_size.sum"), d("serve.batch_size.count")), "requests"},
        {"serve.coalesced_share",
         ratio(d("serve.batch.coalesced_predicts"), static_cast<double>(traced_predicts)),
         "share"},
        {"serve.rejected", d("serve.rejected"), "count"},
        {"serve.deadline_expired", d("serve.deadline_expired"), "count"},
        {"serve.speedup_vs_seq", ratio(untraced_rps, seq_rps), "x"},
    };
    for (int s = 0; s < smiler::obs::kNumStages; ++s) {
      const std::string stage =
          smiler::obs::StageName(static_cast<smiler::obs::Stage>(s));
      metrics.push_back({"stage." + stage + "_s",
                         d("obs.request.stage." + stage + "_seconds.sum"), "s"});
    }
    const std::vector<Metric> more = {
        {"store.pin_s", ratio(rep.pin_s, static_cast<double>(rep.pins)), "s"},
        {"store.pin_s.p99", perfbench::ExactQuantile(rep.pin_samples, 0.99), "s"},
        {"store.enforce_budget_s",
         ratio(rep.enforce_s, static_cast<double>(rep.budget_sweeps)), "s"},
        {"store.rehydrations", d("store.rehydrations"), "count"},
        {"store.evictions", d("store.evictions"), "count"},
        {"store.pin_hit_share",
         rep.pins > 0 ? 1.0 - ratio(rd("store.rehydrations"), static_cast<double>(rep.pins))
                      : 0.0,
         "share"},
        {"store.resident_high_water_bytes", store_high_water, "bytes"},
        {"core.begin_predict_s", ratio(rep.begin_predict_s, rpred), "s"},
        {"core.finish_predict_s", ratio(rep.finish_predict_s, rpred), "s"},
        {"core.observe_s", ratio(rep.observe_s, robs), "s"},
        {"core.seq_rps", seq_rps, "1/s"},
        {"index.lower_bound_s", ratio(rd("index.search.lower_bound_seconds.sum"), rpred), "s"},
        {"index.verify_s", ratio(rd("index.search.verify_seconds.sum"), rpred), "s"},
        {"index.select_s", ratio(rd("index.search.select_seconds.sum"), rpred), "s"},
        {"index.append_s", ratio(rd("index.append_seconds.sum"), robs), "s"},
        {"index.candidates_verified", ratio(cand_verified, rpred), "count"},
        {"index.verify_share", ratio(cand_verified, cand_total), "share"},
        {"index.early_abandon_share",
         ratio(rd("index.verify.early_abandoned"), cand_verified), "share"},
        {"gp.gram_s", ratio(rep.gram_s, rpred), "s"},
        {"gp.cg_iterations_per_predict", ratio(rd("gp.cg_iterations"), rpred), "count"},
        {"gp.train_calls_per_predict", ratio(rd("gp.train_calls"), rpred), "count"},
        {"gp.cholesky_fallbacks", rd("gp.cholesky_fallbacks"), "count"},
        {"simgpu.launches_per_request",
         ratio(launches, static_cast<double>(traced_requests)), "count"},
        {"threadpool.task_wait_s", d("threadpool.task_wait_seconds.sum"), "s"},
        {"threadpool.queue_depth_high_water", pool_high_water, "count"},
        {"process.cpu_s_per_request",
         ratio(window.usage_end.cpu_s - window.usage_begin.cpu_s,
               static_cast<double>(traced_requests)),
         "s"},
        {"process.invol_ctx_switches",
         window.usage_end.invol_ctx - window.usage_begin.invol_ctx, "count"},
        {"obs.trace_overhead_share", 1.0 - ratio(traced_rps, untraced_rps), "share"},
        {"failed_share", failed_share, "share"},
        {"wrong_share", wrong_share, "share"},
    };
    metrics.insert(metrics.end(), more.begin(), more.end());
    for (const char* kernel : kTracedKernels) {
      const std::string base = std::string("simgpu.kernel.") + kernel;
      metrics.push_back({base + "_s", d(base + ".block_seconds.sum"), "s"});
      metrics.push_back({base + "_launches", d(base + ".launches"), "count"});
    }
  }

  // Human-readable summary, then the result line.
  std::printf("failed_share %.6g share (%zu of %zu); wrong_share %.6g share "
              "(%zu of %zu)\n",
              failed_share, failed, attempted, wrong_share, rep.wrong,
              rep.predictions_compared);
  for (const Metric& m : metrics) {
    std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string json = std::string("{\"correct\": ") + (problems.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "" : ", ") + Quote(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
