// Self-tests of the benchmark's deterministic parts: exact quantiles, the
// highest-supported-percentile rule, and seeded input generation.
// Exits 0 when every check passes; run through `python3 perfbench/run.py
// --selftest` or directly as .bench_build/perfbench/perfbench_test.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "workload.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestExactQuantiles() {
  using perfbench::ExactQuantile;
  Expect(ExactQuantile({}, 0.5) == 0.0, "empty sample set gives 0");
  Expect(ExactQuantile({7.0}, 0.99) == 7.0, "single sample is every quantile");
  // Nearest rank: the smallest sample with at least q*n samples at or below.
  Expect(ExactQuantile(OneTo(100), 0.50) == 50.0, "p50 of 1..100 is 50");
  Expect(ExactQuantile(OneTo(100), 0.99) == 99.0, "p99 of 1..100 is 99");
  Expect(ExactQuantile(OneTo(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
  Expect(ExactQuantile(OneTo(1001), 0.99) == 991.0, "p99 of 1..1001 is 991");
  Expect(ExactQuantile(OneTo(10), 1.0) == 10.0, "p100 is the maximum");
  Expect(ExactQuantile(OneTo(3), 0.5) == 2.0, "p50 of 1..3 is 2");
  Expect(ExactQuantile({5.0, 5.0, 1.0, 9.0}, 0.5) == 5.0, "ties");
  // Values are returned as measured, never interpolated.
  Expect(ExactQuantile({0.1, 0.2}, 0.5) == 0.1, "no interpolation");
}

void TestPercentileRule() {
  using perfbench::HighestSupportedPercentile;
  using perfbench::PercentileSupported;
  // p99 needs ten samples beyond its nearest rank: n >= 1000.
  Expect(!PercentileSupported(999, 99), "999 samples do not support p99");
  Expect(PercentileSupported(1000, 99), "1000 samples support p99");
  Expect(!PercentileSupported(0, 50), "no samples support nothing");
  Expect(!PercentileSupported(19, 50), "19 samples do not support p50");
  Expect(PercentileSupported(20, 50), "20 samples support p50");
  Expect(PercentileSupported(100, 90), "100 samples support p90");
  Expect(!PercentileSupported(199, 95), "199 samples do not support p95");
  Expect(PercentileSupported(200, 95), "200 samples support p95");
  Expect(HighestSupportedPercentile(10000) == 99.9, "10000 samples -> p99.9");
  Expect(HighestSupportedPercentile(9999) == 99.0, "9999 samples -> p99");
  Expect(HighestSupportedPercentile(999) == 95.0, "999 samples -> p95");
  Expect(HighestSupportedPercentile(150) == 90.0, "150 samples -> p90");
  Expect(HighestSupportedPercentile(25) == 50.0, "25 samples -> p50");
  Expect(HighestSupportedPercentile(5) == 0.0, "5 samples -> none");
}

void TestSeededInputs() {
  // Shrunk copies of the real workloads keep the test fast; generation is
  // the same code path.
  for (const perfbench::WorkloadSpec& real : perfbench::Workloads()) {
    perfbench::WorkloadSpec spec = real;
    spec.history = 512;
    spec.stream = 4096;
    spec.requests_per_client = std::min(spec.requests_per_client, 2000);
    const std::string name = spec.name;
    const std::string a = perfbench::SerializeInputs(perfbench::MakeInputs(spec, 1, 4));
    const std::string b = perfbench::SerializeInputs(perfbench::MakeInputs(spec, 1, 4));
    const std::string c = perfbench::SerializeInputs(perfbench::MakeInputs(spec, 2, 4));
    Expect(!a.empty() && a == b, name + ": same seed gives byte-identical inputs");
    Expect(a != c, name + ": a different seed gives different inputs");
  }

  // Round robin: each client alternates Observe and Predict over its own
  // strided sensors.
  const perfbench::WorkloadSpec ar = *perfbench::FindWorkload("predict_ar");
  const perfbench::Inputs rr = perfbench::MakeInputs(ar, 3, 4);
  bool alternates = true;
  for (std::size_t c = 0; c < rr.requests.size(); ++c) {
    const auto& reqs = rr.requests[c];
    for (std::size_t k = 0; k < reqs.size(); ++k) {
      const bool observe_slot = k % 2 == 0;
      alternates = alternates && reqs[k].sensor % 4 == c &&
                   (reqs[k].op == perfbench::Op::kObserve) == observe_slot &&
                   (observe_slot || reqs[k].sensor == reqs[k - 1].sensor);
    }
  }
  Expect(alternates, "round robin alternates Observe and Predict on owned sensors");

  // Mixed traffic: about four Observes per Predict, skewed popularity,
  // every request on one of the client's own sensors.
  perfbench::WorkloadSpec mixed = *perfbench::FindWorkload("ingest_tiered");
  mixed.history = 512;
  const perfbench::Inputs in = perfbench::MakeInputs(mixed, 7, 4);
  std::size_t predicts = 0, total = 0;
  bool owned = true;
  std::vector<std::size_t> per_sensor(static_cast<std::size_t>(mixed.sensors), 0);
  for (std::size_t c = 0; c < in.requests.size(); ++c) {
    for (const perfbench::Request& r : in.requests[c]) {
      owned = owned && r.sensor % 4 == c;
      ++per_sensor[r.sensor];
      ++total;
      if (r.op == perfbench::Op::kPredict) ++predicts;
    }
  }
  Expect(owned, "mixed traffic stays on each client's own sensors");
  const double mix = static_cast<double>(total - predicts) / static_cast<double>(predicts);
  Expect(mix > 3.7 && mix < 4.3, "about four Observes per Predict");
  std::size_t hottest = 0;
  for (std::size_t n : per_sensor) hottest = std::max(hottest, n);
  Expect(static_cast<double>(hottest) >
             20.0 * static_cast<double>(total) / static_cast<double>(mixed.sensors),
         "sensor popularity is skewed");
}

}  // namespace

int main() {
  TestExactQuantiles();
  TestPercentileRule();
  TestSeededInputs();
  if (failures == 0) std::printf("perfbench_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
