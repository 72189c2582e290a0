#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {

using smiler::core::PredictorKind;
using smiler::ts::DatasetKind;

/// Seed of the fleet's series, shared by every run.
constexpr std::uint64_t kFleetSeed = 2015;
/// A sensor's history starts at a seeded offset below this.
constexpr std::size_t kMaxWindowOffset = 2048;

std::vector<WorkloadSpec> BuildWorkloads() {
  std::vector<WorkloadSpec> w;

  // Index search: SMiLer-AR spends most of a Predict in lower bounds and
  // DTW verify, and the fleet uses neither GP nor the store.
  WorkloadSpec ar;
  ar.name = "predict_ar";
  ar.dataset = DatasetKind::kMall;
  ar.predictor = PredictorKind::kAr;
  ar.sensors = 16;
  ar.history = 16384;
  ar.stream = 4096;
  w.push_back(ar);

  // The GP path: Gram, Cholesky, CG training and the GP forecast, on the
  // dataset where the paper shows GP beating AR.
  WorkloadSpec gp = ar;
  gp.name = "predict_gp";
  gp.dataset = DatasetKind::kRoad;
  gp.predictor = PredictorKind::kGp;
  gp.stream = 2048;
  w.push_back(gp);

  // The write path beside the read path: index Append, ensemble updates
  // and rehydrate/evict under a store that holds an eighth of the fleet,
  // with the skewed, Observe-heavy traffic of a sensor fleet. Why it is a
  // closed loop is explained in perfbench/README.md.
  WorkloadSpec ingest;
  ingest.name = "ingest_tiered";
  ingest.dataset = DatasetKind::kMall;
  ingest.predictor = PredictorKind::kAr;
  ingest.sensors = 256;
  ingest.history = 1024;
  ingest.stream = 32768;
  ingest.observes_per_predict = 4;
  ingest.zipf_s = 2.5;
  ingest.requests_per_client = 30000;
  ingest.store_budget_bytes = 3489792;  // 1/8 of the fleet's 27918336 resident bytes
  w.push_back(ingest);
  return w;
}

/// SplitMix64: a tiny, fully specified generator, so request sequences are
/// byte-identical across standard libraries (std distributions are not).
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t Next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
};

template <typename T>
void Put(std::string* out, T v) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  out->append(reinterpret_cast<const char*>(bytes), sizeof(T));
}

void PutDoubles(std::string* out, const std::vector<double>& v) {
  Put<std::uint64_t>(out, v.size());
  for (double x : v) Put(out, x);
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = BuildWorkloads();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Inputs MakeInputs(const WorkloadSpec& spec, std::uint64_t seed, int clients) {
  Inputs in;
  const std::size_t n = static_cast<std::size_t>(spec.sensors);
  in.requests.resize(static_cast<std::size_t>(clients));
  std::vector<int> observes(n, 0);
  if (spec.observes_per_predict == 0) {
    // Set-up served each sensor's first Predict, so a client goes on with
    // the Observe that resolves it, then the next Predict, sensor by
    // sensor. The last Predict of a sensor still has a value to check.
    for (int c = 0; c < clients; ++c) {
      auto& out = in.requests[static_cast<std::size_t>(c)];
      for (int k = 0; k + 1 < spec.stream; ++k) {
        for (int s = c; s < spec.sensors; s += clients) {
          out.push_back(Request{static_cast<std::uint32_t>(s), Op::kObserve});
          out.push_back(Request{static_cast<std::uint32_t>(s), Op::kPredict});
          ++observes[static_cast<std::size_t>(s)];
        }
      }
    }
  } else {
    // Zipf popularity over a fixed shuffle of the sensors. The shuffle is
    // part of the workload, not of the seed: which sensors are hot, and so
    // how the hot set falls on clients and shards, stays the same from
    // seed to seed, while the sensors drawn, the mix and the data vary.
    SplitMix64 shuffle{0x5EEDF00DULL};
    std::vector<std::size_t> rank(n);
    for (std::size_t i = 0; i < n; ++i) rank[i] = i;
    for (std::size_t i = n; i > 1; --i) std::swap(rank[i - 1], rank[shuffle.Next() % i]);
    const double predict_p = 1.0 / (1.0 + spec.observes_per_predict);
    for (int c = 0; c < clients; ++c) {
      std::vector<std::uint32_t> own;
      std::vector<double> cdf;
      double total = 0.0;
      for (int s = c; s < spec.sensors; s += clients) {
        own.push_back(static_cast<std::uint32_t>(s));
        total += 1.0 / std::pow(static_cast<double>(rank[static_cast<std::size_t>(s)] + 1),
                                spec.zipf_s);
        cdf.push_back(total);
      }
      SplitMix64 rng{seed * 0x100000001B3ULL + static_cast<std::uint64_t>(c)};
      auto& out = in.requests[static_cast<std::size_t>(c)];
      for (int k = 0; k < spec.requests_per_client; ++k) {
        const double u = rng.Uniform() * total;
        const std::size_t i = std::min<std::size_t>(
            static_cast<std::size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin()),
            own.size() - 1);
        const Request req{own[i], rng.Uniform() < predict_p ? Op::kPredict : Op::kObserve};
        if (req.op == Op::kObserve && ++observes[req.sensor] >= spec.stream) {
          std::fprintf(stderr, "perfbench: sensor %u needs more than the %d observations "
                       "of its stream\n", req.sensor, spec.stream);
          std::exit(1);
        }
        out.push_back(req);
      }
    }
  }

  // The fleet's series are part of the workload (fixed dataset seed); the
  // run seed picks where in each sensor's series its history starts.
  smiler::ts::DatasetSpec ds;
  ds.kind = spec.dataset;
  ds.num_sensors = spec.sensors;
  ds.points_per_sensor = spec.history + spec.stream + kMaxWindowOffset;
  ds.seed = kFleetSeed;
  auto data = smiler::ts::MakeDataset(ds);
  if (!data.ok()) {
    std::fprintf(stderr, "perfbench: dataset generation failed: %s\n",
                 data.status().ToString().c_str());
    std::exit(1);
  }
  SplitMix64 window{seed ^ 0x0FF5E7ULL};
  for (std::size_t s = 0; s < n; ++s) {
    const auto begin = (*data)[s].values().begin() +
                       static_cast<std::ptrdiff_t>(window.Next() % kMaxWindowOffset);
    in.histories.emplace_back((*data)[s].sensor_id(),
                              std::vector<double>(begin, begin + spec.history));
    // Keep only the observations the requests use, plus the value the
    // last Predict forecasts.
    in.streams.emplace_back(begin + spec.history,
                            begin + spec.history + std::min(observes[s] + 1, spec.stream));
  }
  return in;
}

std::string SerializeInputs(const Inputs& inputs) {
  std::string out;
  Put<std::uint64_t>(&out, inputs.histories.size());
  for (const auto& h : inputs.histories) PutDoubles(&out, h.values());
  Put<std::uint64_t>(&out, inputs.streams.size());
  for (const auto& s : inputs.streams) PutDoubles(&out, s);
  Put<std::uint64_t>(&out, inputs.requests.size());
  for (const auto& client : inputs.requests) {
    Put<std::uint64_t>(&out, client.size());
    for (const Request& r : client) {
      Put(&out, r.sensor);
      Put(&out, static_cast<std::uint8_t>(r.op));
    }
  }
  return out;
}

namespace {
/// 1-based nearest rank of quantile q among n samples.
std::size_t NearestRank(std::size_t n, double q) {
  // The epsilon keeps exact products such as 0.99 * 1000 from rounding up.
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}
}  // namespace

double ExactQuantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t k = NearestRank(samples.size(), q) - 1;
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

bool PercentileSupported(std::size_t n, double p) {
  if (n == 0) return false;
  return n - NearestRank(n, p / 100.0) >= 10;
}

double HighestSupportedPercentile(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    if (PercentileSupported(n, p)) return p;
  }
  return 0.0;
}

}  // namespace perfbench
