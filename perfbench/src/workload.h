// Workload definitions, seeded input generation and exact latency
// statistics for the SMiLer serving benchmark (perfbench/src/main.cc).
//
// Everything here is deterministic and free of timing, so the benchmark's
// self-tests (workload_test.cc) can pin it down.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "ts/datasets.h"

namespace perfbench {

/// Every workload is a closed loop: client c owns the sensors c,
/// c + clients, c + 2 * clients, ... and sends its next request only after
/// the previous one answered.
struct WorkloadSpec {
  const char* name = "";
  smiler::ts::DatasetKind dataset = smiler::ts::DatasetKind::kMall;
  smiler::core::PredictorKind predictor = smiler::core::PredictorKind::kAr;
  int sensors = 0;
  /// Points per sensor indexed before serving starts.
  int history = 0;
  /// Observations available to each sensor after its history; input
  /// generation stops the run when a client's requests need more.
  int stream = 0;
  /// 0: each client visits its sensors in turn, Observe then Predict
  /// (the paper's continuous-prediction protocol). Otherwise each request
  /// goes to a Zipf-drawn sensor of the client and is a Predict with
  /// probability 1 / (1 + observes_per_predict).
  int observes_per_predict = 0;
  /// Zipf exponent of the sensor popularity (mixed traffic only).
  double zipf_s = 0.0;
  /// Requests generated per client (mixed traffic only); more than a run
  /// can send.
  int requests_per_client = 0;
  /// Explicit TieredStateStore byte budget (0 = no store, every engine
  /// stays resident).
  std::size_t store_budget_bytes = 0;
};

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();
/// Looks a workload up by name; nullptr when unknown.
const WorkloadSpec* FindWorkload(std::string_view name);

enum class Op : std::uint8_t { kPredict = 0, kObserve = 1 };

struct Request {
  std::uint32_t sensor = 0;
  Op op = Op::kPredict;
};

/// \brief Every input of one run, derived from the seed alone.
struct Inputs {
  /// Per sensor, the z-normalized history indexed at set-up.
  std::vector<smiler::ts::TimeSeries> histories;
  /// Per sensor, the observations that follow its history, in order. The
  /// k-th Observe a sensor receives carries streams[sensor][k].
  std::vector<std::vector<double>> streams;
  /// Per client, the requests it sends, in order (a run sends a prefix).
  std::vector<std::vector<Request>> requests;
};

/// Builds the inputs of \p spec for \p seed and \p clients clients. Every
/// run indexes the same fleet of ts::MakeDataset series; \p seed picks
/// where in each series the sensor's history starts and, for mixed
/// traffic, the request sequences (a generator of their own). Exits the
/// process with a message when the dataset fails or a sensor's stream is
/// too short for its requests.
Inputs MakeInputs(const WorkloadSpec& spec, std::uint64_t seed, int clients);

/// Canonical little-endian byte encoding of \p inputs. Two runs received
/// the same requests exactly when their encodings are equal.
std::string SerializeInputs(const Inputs& inputs);

/// Exact q-quantile (0 < q <= 1) of raw samples by the nearest-rank
/// rule: the smallest sample with at least q*n samples at or below it.
/// 0 for an empty sample set.
double ExactQuantile(std::vector<double> samples, double q);

/// True when \p n samples support percentile \p p (e.g. 99): at least ten
/// samples lie beyond the nearest-rank position of p.
bool PercentileSupported(std::size_t n, double p);

/// The highest of 99.9, 99, 95, 90 and 50 that \p n samples support;
/// 0 when none is.
double HighestSupportedPercentile(std::size_t n);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
