#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "dtw/dtw.h"
#include "dtw/envelope.h"
#include "dtw/lower_bounds.h"
#include "index/csg.h"
#include "index/kselect.h"
#include "index/scan_baselines.h"
#include "index/smiler_index.h"
#include "simgpu/device.h"
#include "ts/datasets.h"
#include "ts/series.h"

namespace smiler {
namespace index {
namespace {

std::vector<double> RandomWalk(Rng* rng, int n) {
  std::vector<double> v(n);
  double x = 0.0;
  for (int i = 0; i < n; ++i) {
    x += rng->Normal();
    v[i] = x;
  }
  return v;
}

// Ground truth: brute-force banded-DTW kNN for one suffix query.
std::vector<Neighbor> BruteKnn(const std::vector<double>& series, int d,
                               int rho, int k, int reserve_horizon) {
  const long n = static_cast<long>(series.size());
  const long t_count = n - d - reserve_horizon + 1;
  const double* q = series.data() + n - d;
  std::vector<Neighbor> all;
  for (long t = 0; t < t_count; ++t) {
    all.push_back(
        Neighbor{t, dtw::BandedDtw(q, series.data() + t, d, rho)});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.dist != b.dist) return a.dist < b.dist;
    return a.t < b.t;
  });
  if (static_cast<int>(all.size()) > k) all.resize(k);
  return all;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].dist, want[i].dist, 1e-7) << "rank " << i;
  }
  // Distances sorted ascending.
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_LE(got[i - 1].dist, got[i].dist + 1e-12);
  }
}

// ------------------------------------------------------------------- CSG

TEST(CsgTest, SlidingWindowGeometry) {
  // Paper Fig 5: d_max = 9, omega = 3 -> 7 sliding windows, SW_0 rightmost.
  EXPECT_EQ(NumSlidingWindows(9, 3), 7);
  EXPECT_EQ(SlidingWindowBegin(9, 3, 0), 6);  // covers positions 6,7,8
  EXPECT_EQ(SlidingWindowBegin(9, 3, 6), 0);  // covers positions 0,1,2
}

TEST(CsgTest, CsgSizesMatchPaperExample41) {
  // MQ (d=9, omega=3): CSG_0 = {SW0,SW3,SW6}, CSG_1 = {SW1,SW4},
  // CSG_2 = {SW2,SW5}. IQ_0 (d=6): CSG_{0,0} = {SW0,SW3}, CSG_{0,1} =
  // {SW1}, CSG_{0,2} = {SW2}.
  EXPECT_EQ(CsgSize(9, 0, 3), 3);
  EXPECT_EQ(CsgSize(9, 1, 3), 2);
  EXPECT_EQ(CsgSize(9, 2, 3), 2);
  EXPECT_EQ(CsgSize(6, 0, 3), 2);
  EXPECT_EQ(CsgSize(6, 1, 3), 1);
  EXPECT_EQ(CsgSize(6, 2, 3), 1);
}

TEST(CsgTest, SegmentStartMatchesPaperExample42) {
  // Example 4.2: (SW0,DW3)+(SW3,DW2) bounds IQ_0 vs C_{6,6};
  // adding (SW6,DW1) bounds IQ_1 vs C_{3,9}.
  EXPECT_EQ(SegmentStart(/*omega=*/3, /*d=*/6, /*b=*/0, /*r=*/3, /*m=*/2), 6);
  EXPECT_EQ(SegmentStart(/*omega=*/3, /*d=*/9, /*b=*/0, /*r=*/3, /*m=*/3), 3);
}

TEST(CsgTest, AlignmentRoundTrips) {
  // Theorem 4.2: each (t, d) has exactly one alignment; invert and check.
  for (int omega : {3, 8, 16}) {
    for (int d : {2 * omega, 2 * omega + 3, 6 * omega}) {
      for (long t = 0; t < 100; ++t) {
        const CsgAlignment a = AlignmentFor(t, d, omega);
        ASSERT_GE(a.b, 0);
        ASSERT_LT(a.b, omega);
        ASSERT_GE(a.m, 1);
        ASSERT_EQ(SegmentStart(omega, d, a.b, a.r, a.m), t)
            << "omega=" << omega << " d=" << d << " t=" << t;
      }
    }
  }
}

TEST(CsgTest, AlignmentsAreUniqueAcrossB) {
  // Distinct t map to distinct (b, r) pairs for fixed d (injectivity).
  const int omega = 4;
  const int d = 12;
  std::set<std::pair<int, long>> seen;
  for (long t = 0; t < 200; ++t) {
    const CsgAlignment a = AlignmentFor(t, d, omega);
    EXPECT_TRUE(seen.insert({a.b, a.r}).second) << "t=" << t;
  }
}

// --------------------------------------------------------------- KSelect

TEST(KSelectTest, SelectsSmallestSorted) {
  Rng rng(40);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 1 + static_cast<int>(rng.UniformInt(5000));
    const int k = 1 + static_cast<int>(rng.UniformInt(100));
    std::vector<Neighbor> cands(n);
    for (int i = 0; i < n; ++i) {
      cands[i] = Neighbor{i, rng.Normal() * 100.0};
    }
    std::vector<Neighbor> want = cands;
    std::sort(want.begin(), want.end(),
              [](const Neighbor& a, const Neighbor& b) {
                if (a.dist != b.dist) return a.dist < b.dist;
                return a.t < b.t;
              });
    want.resize(std::min(n, k));
    std::vector<Neighbor> got = KSelectSmallest(cands, k);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].t, want[i].t);
      EXPECT_DOUBLE_EQ(got[i].dist, want[i].dist);
    }
  }
}

TEST(KSelectTest, HandlesEdgeCases) {
  EXPECT_TRUE(KSelectSmallest({}, 5).empty());
  EXPECT_TRUE(KSelectSmallest({Neighbor{0, 1.0}}, 0).empty());
  auto one = KSelectSmallest({Neighbor{3, 2.0}}, 10);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].t, 3);
}

TEST(KSelectTest, AllEqualDistances) {
  std::vector<Neighbor> cands(1000, Neighbor{0, 7.0});
  for (int i = 0; i < 1000; ++i) cands[i].t = i;
  auto got = KSelectSmallest(cands, 10);
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[i].t, i);  // tie-break by t
}

TEST(KSelectTest, SkewedDistributionsLandInOneBucket) {
  // Heavy concentration stresses the recursion into the pivot bucket.
  std::vector<Neighbor> cands;
  for (int i = 0; i < 4096; ++i) {
    cands.push_back(Neighbor{i, i < 4000 ? 1.0 + i * 1e-9 : 1000.0 + i});
  }
  auto got = KSelectSmallest(cands, 64);
  ASSERT_EQ(got.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(got[i].t, i);
}

TEST(KSelectTest, InfinityDistancesHandled) {
  std::vector<Neighbor> cands;
  for (int i = 0; i < 100; ++i) {
    cands.push_back(Neighbor{i, i % 3 == 0
                                    ? std::numeric_limits<double>::infinity()
                                    : static_cast<double>(i)});
  }
  auto got = KSelectSmallest(cands, 5);
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[0].t, 1);
  EXPECT_EQ(got[1].t, 2);
  EXPECT_EQ(got[2].t, 4);
}

TEST(KSelectTest, MixedInfinitiesMatchFullSort) {
  // The +inf drop path (at least k distances below +inf) and the
  // full-input path (fewer than k) must both equal a full sort; -inf is
  // an ordinary (smallest) distance and is never dropped.
  constexpr double kPosInf = std::numeric_limits<double>::infinity();
  auto full_sort = [](std::vector<Neighbor> v, int k) {
    std::sort(v.begin(), v.end(), [](const Neighbor& a, const Neighbor& b) {
      if (a.dist != b.dist) return a.dist < b.dist;
      return a.t < b.t;
    });
    v.resize(std::min<std::size_t>(v.size(), k));
    return v;
  };
  Rng rng(41);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 1 + static_cast<int>(rng.UniformInt(3000));
    const int k = 1 + static_cast<int>(rng.UniformInt(64));
    // Share of +inf: none, some, most, all — so both sides of the
    // k-finite threshold are hit.
    const double inf_share = (trial % 4) / 3.0;
    std::vector<Neighbor> cands(n);
    for (int i = 0; i < n; ++i) {
      double dist = rng.Uniform() * 50.0;
      if (rng.Uniform() < inf_share) dist = kPosInf;
      if (trial % 5 == 0 && i % 97 == 0) dist = -kPosInf;
      cands[i] = Neighbor{n - i, dist};
    }
    const std::vector<Neighbor> want = full_sort(cands, k);
    const std::vector<Neighbor> got = KSelectSmallest(cands, k);
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].t, want[i].t) << "trial " << trial << " rank " << i;
      EXPECT_EQ(got[i].dist, want[i].dist) << "trial " << trial;
    }
  }
  // Fewer than k distances below +inf: the +inf ones fill the tail,
  // tie-broken by t.
  std::vector<Neighbor> sparse;
  for (int i = 0; i < 20; ++i) {
    const double dist = i % 4 == 0 ? static_cast<double>(i) : kPosInf;
    sparse.push_back(Neighbor{i, dist});
  }
  const std::vector<Neighbor> got = KSelectSmallest(sparse, 8);
  const std::vector<Neighbor> want = full_sort(sparse, 8);
  ASSERT_EQ(got.size(), 8u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].t, want[i].t);
    EXPECT_EQ(got[i].dist, want[i].dist);
  }
  EXPECT_EQ(got[5].t, 1);  // first +inf by t after the 5 finite ones
  EXPECT_EQ(got[5].dist, kPosInf);
}

// --------------------------------------------------------- SmilerIndex

SmilerConfig SmallConfig() {
  SmilerConfig cfg;
  cfg.rho = 4;
  cfg.omega = 8;
  cfg.elv = {16, 24, 40};
  cfg.ekv = {2, 4, 8};
  return cfg;
}

TEST(SmilerIndexTest, BuildRejectsShortHistory) {
  simgpu::Device device;
  SmilerConfig cfg = SmallConfig();
  ts::TimeSeries tiny("t", std::vector<double>(20, 0.0));
  EXPECT_FALSE(SmilerIndex::Build(&device, tiny, cfg).ok());
}

TEST(SmilerIndexTest, BuildRejectsNullDevice) {
  SmilerConfig cfg = SmallConfig();
  ts::TimeSeries s("t", std::vector<double>(500, 0.0));
  EXPECT_FALSE(SmilerIndex::Build(nullptr, s, cfg).ok());
}

TEST(SmilerIndexTest, GeometryAfterBuild) {
  simgpu::Device device;
  SmilerConfig cfg = SmallConfig();
  Rng rng(50);
  ts::TimeSeries s("t", RandomWalk(&rng, 500));
  auto idx = SmilerIndex::Build(&device, s, cfg);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx->num_sliding_windows(), 40 - 8 + 1);
  EXPECT_EQ(idx->num_disjoint_windows(), 500 / 8);
  EXPECT_EQ(idx->now(), 499);
  EXPECT_GT(idx->MemoryFootprintBytes(), 0u);
  EXPECT_EQ(device.memory_used(), idx->MemoryFootprintBytes());
}

TEST(SmilerIndexTest, GroupBoundsAreValidLowerBounds) {
  simgpu::Device device;
  SmilerConfig cfg = SmallConfig();
  Rng rng(51);
  ts::TimeSeries s("t", RandomWalk(&rng, 400));
  auto idx = SmilerIndex::Build(&device, s, cfg);
  ASSERT_TRUE(idx.ok());
  const int h = 1;
  auto table_or = idx->GroupLowerBounds(h);
  ASSERT_TRUE(table_or.ok());
  LowerBoundTable table = std::move(*table_or);
  const std::vector<double>& series = idx->series();
  for (std::size_t i = 0; i < cfg.elv.size(); ++i) {
    const int d = cfg.elv[i];
    const double* q = series.data() + series.size() - d;
    const long t_count = idx->NumCandidates(i, h);
    ASSERT_EQ(static_cast<long>(table.lb_eq[i].size()), t_count);
    for (long t = 0; t < t_count; ++t) {
      const double dtw_dist =
          dtw::BandedDtw(q, series.data() + t, d, cfg.rho);
      ASSERT_LE(table.lb_eq[i][t], dtw_dist + 1e-9) << "i=" << i << " t=" << t;
      ASSERT_LE(table.lb_ec[i][t], dtw_dist + 1e-9) << "i=" << i << " t=" << t;
    }
  }
}

TEST(SmilerIndexTest, GroupBoundsStayValidAcrossAppends) {
  simgpu::Device device;
  SmilerConfig cfg = SmallConfig();
  Rng rng(52);
  std::vector<double> data = RandomWalk(&rng, 300);
  ts::TimeSeries s("t", data);
  auto idx = SmilerIndex::Build(&device, s, cfg);
  ASSERT_TRUE(idx.ok());
  for (int step = 0; step < 40; ++step) {
    ASSERT_TRUE(idx->Append(rng.Normal()).ok());
    auto table_or = idx->GroupLowerBounds(1);
    ASSERT_TRUE(table_or.ok());
    LowerBoundTable table = std::move(*table_or);
    const std::vector<double>& series = idx->series();
    for (std::size_t i = 0; i < cfg.elv.size(); ++i) {
      const int d = cfg.elv[i];
      const double* q = series.data() + series.size() - d;
      const long t_count = idx->NumCandidates(i, 1);
      for (long t = 0; t < t_count; ++t) {
        const double dtw_dist =
            dtw::BandedDtw(q, series.data() + t, d, cfg.rho);
        ASSERT_LE(table.Bound(LowerBoundMode::kLben, i, t), dtw_dist + 1e-9)
            << "step=" << step << " i=" << i << " t=" << t;
      }
    }
  }
}

TEST(SmilerIndexTest, DirectBoundsAreValidAndTighterOrEqual) {
  simgpu::Device device;
  SmilerConfig cfg = SmallConfig();
  Rng rng(53);
  ts::TimeSeries s("t", RandomWalk(&rng, 400));
  auto idx = SmilerIndex::Build(&device, s, cfg);
  ASSERT_TRUE(idx.ok());
  auto direct_or = idx->DirectLowerBounds(1);
  auto grouped_or = idx->GroupLowerBounds(1);
  ASSERT_TRUE(direct_or.ok());
  ASSERT_TRUE(grouped_or.ok());
  LowerBoundTable direct = std::move(*direct_or);
  LowerBoundTable grouped = std::move(*grouped_or);
  const std::vector<double>& series = idx->series();
  for (std::size_t i = 0; i < cfg.elv.size(); ++i) {
    const int d = cfg.elv[i];
    const double* q = series.data() + series.size() - d;
    for (long t = 0; t < idx->NumCandidates(i, 1); ++t) {
      const double dtw_dist =
          dtw::BandedDtw(q, series.data() + t, d, cfg.rho);
      ASSERT_LE(direct.Bound(LowerBoundMode::kLben, i, t), dtw_dist + 1e-9);
      // The full-length direct bound dominates the windowed group bound
      // (Theorem 4.3 drops the partial-window terms).
      ASSERT_GE(direct.Bound(LowerBoundMode::kLben, i, t),
                grouped.Bound(LowerBoundMode::kLben, i, t) - 1e-9);
    }
  }
}

class SmilerIndexExactnessTest : public ::testing::TestWithParam<int> {};

TEST_P(SmilerIndexExactnessTest, SearchMatchesBruteForce) {
  const int k = GetParam();
  simgpu::Device device;
  SmilerConfig cfg = SmallConfig();
  Rng rng(54);
  ts::TimeSeries s("t", RandomWalk(&rng, 350));
  auto idx = SmilerIndex::Build(&device, s, cfg);
  ASSERT_TRUE(idx.ok());
  SuffixSearchOptions opts;
  opts.k = k;
  opts.reserve_horizon = 2;
  auto result = idx->Search(opts);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->items.size(), cfg.elv.size());
  for (std::size_t i = 0; i < cfg.elv.size(); ++i) {
    auto want = BruteKnn(idx->series(), cfg.elv[i], cfg.rho, k, 2);
    ExpectSameNeighbors(result->items[i].neighbors, want);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, SmilerIndexExactnessTest,
                         ::testing::Values(1, 4, 16, 64));

TEST(SmilerIndexTest, ContinuousSearchStaysExact) {
  // The heart of the index: after many append+search cycles (threshold
  // reuse, envelope repair, ring-buffer shifts), results must still match
  // brute force exactly.
  simgpu::Device device;
  SmilerConfig cfg = SmallConfig();
  Rng rng(55);
  ts::TimeSeries s("t", RandomWalk(&rng, 280));
  auto idx = SmilerIndex::Build(&device, s, cfg);
  ASSERT_TRUE(idx.ok());
  SuffixSearchOptions opts;
  opts.k = 8;
  opts.reserve_horizon = 1;
  for (int step = 0; step < 60; ++step) {
    auto result = idx->Search(opts);
    ASSERT_TRUE(result.ok());
    for (std::size_t i = 0; i < cfg.elv.size(); ++i) {
      auto want = BruteKnn(idx->series(), cfg.elv[i], cfg.rho, 8, 1);
      ExpectSameNeighbors(result->items[i].neighbors, want);
    }
    ASSERT_TRUE(idx->Append(rng.Normal()).ok());
  }
}

TEST(SmilerIndexTest, EveryLowerBoundModeIsExact) {
  simgpu::Device device;
  SmilerConfig cfg = SmallConfig();
  Rng rng(56);
  ts::TimeSeries s("t", RandomWalk(&rng, 320));
  for (LowerBoundMode mode :
       {LowerBoundMode::kLbeq, LowerBoundMode::kLbec, LowerBoundMode::kLben}) {
    auto idx = SmilerIndex::Build(&device, s, cfg);
    ASSERT_TRUE(idx.ok());
    SuffixSearchOptions opts;
    opts.k = 8;
    opts.bound = mode;
    auto result = idx->Search(opts);
    ASSERT_TRUE(result.ok());
    for (std::size_t i = 0; i < cfg.elv.size(); ++i) {
      auto want = BruteKnn(idx->series(), cfg.elv[i], cfg.rho, 8, 1);
      ExpectSameNeighbors(result->items[i].neighbors, want);
    }
  }
}

TEST(SmilerIndexTest, EnhancedBoundFiltersMoreThanEither) {
  // Table 3's claim: LBen leaves fewer unfiltered candidates.
  simgpu::Device device;
  SmilerConfig cfg;
  cfg.rho = 8;
  cfg.omega = 16;
  cfg.elv = {32, 64, 96};
  cfg.ekv = {8, 16, 32};
  auto data = ts::MakeDataset(
      {ts::DatasetKind::kRoad, 1, 4000, 128, 7, true});
  ASSERT_TRUE(data.ok());
  std::uint64_t verified[3];
  int mi = 0;
  for (LowerBoundMode mode :
       {LowerBoundMode::kLbeq, LowerBoundMode::kLbec, LowerBoundMode::kLben}) {
    auto idx = SmilerIndex::Build(&device, (*data)[0], cfg);
    ASSERT_TRUE(idx.ok());
    SuffixSearchOptions opts;
    opts.k = 16;
    opts.bound = mode;
    SearchStats stats;
    ASSERT_TRUE(idx->Search(opts, &stats).ok());
    verified[mi++] = stats.candidates_verified;
  }
  EXPECT_LE(verified[2], verified[0]);  // LBen <= LBEQ
  EXPECT_LE(verified[2], verified[1]);  // LBen <= LBEC
}

TEST(SmilerIndexTest, StatsAreConsistent) {
  simgpu::Device device;
  SmilerConfig cfg = SmallConfig();
  Rng rng(57);
  ts::TimeSeries s("t", RandomWalk(&rng, 300));
  auto idx = SmilerIndex::Build(&device, s, cfg);
  ASSERT_TRUE(idx.ok());
  SuffixSearchOptions opts;
  opts.k = 4;
  SearchStats stats;
  ASSERT_TRUE(idx->Search(opts, &stats).ok());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < cfg.elv.size(); ++i) {
    total += static_cast<std::uint64_t>(idx->NumCandidates(i, 1));
  }
  EXPECT_EQ(stats.candidates_total, total);
  EXPECT_LE(stats.candidates_verified, stats.candidates_total);
  EXPECT_GT(stats.candidates_verified, 0u);
}

TEST(SmilerIndexTest, SearchRejectsBadOptions) {
  simgpu::Device device;
  SmilerConfig cfg = SmallConfig();
  Rng rng(58);
  ts::TimeSeries s("t", RandomWalk(&rng, 300));
  auto idx = SmilerIndex::Build(&device, s, cfg);
  ASSERT_TRUE(idx.ok());
  SuffixSearchOptions opts;
  opts.k = 0;
  EXPECT_FALSE(idx->Search(opts).ok());
  opts.k = 4;
  opts.reserve_horizon = -1;
  EXPECT_FALSE(idx->Search(opts).ok());
}

TEST(SmilerIndexTest, MemoryAccountingReleasedOnDestruction) {
  simgpu::Device device;
  SmilerConfig cfg = SmallConfig();
  Rng rng(59);
  ts::TimeSeries s("t", RandomWalk(&rng, 300));
  {
    auto idx = SmilerIndex::Build(&device, s, cfg);
    ASSERT_TRUE(idx.ok());
    EXPECT_GT(device.memory_used(), 0u);
  }
  EXPECT_EQ(device.memory_used(), 0u);
}

TEST(SmilerIndexTest, BuildFailsWhenBudgetTooSmall) {
  simgpu::Device device(/*memory_budget_bytes=*/1024);
  SmilerConfig cfg = SmallConfig();
  Rng rng(60);
  ts::TimeSeries s("t", RandomWalk(&rng, 1000));
  auto idx = SmilerIndex::Build(&device, s, cfg);
  EXPECT_FALSE(idx.ok());
  EXPECT_EQ(idx.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(device.memory_used(), 0u);
}


TEST(SmilerIndexTest, GroupBoundsMatchManualShiftSum) {
  // Eqn (5) cross-check: for every candidate, the group kernel's output
  // must equal the sum of per-window LB_Keogh terms computed directly
  // from the envelopes and the unique CSG alignment of Theorem 4.2.
  simgpu::Device device;
  SmilerConfig cfg = SmallConfig();
  Rng rng(63);
  ts::TimeSeries s("t", RandomWalk(&rng, 350));
  auto idx = SmilerIndex::Build(&device, s, cfg);
  ASSERT_TRUE(idx.ok());
  auto table_or = idx->GroupLowerBounds(1);
  ASSERT_TRUE(table_or.ok());
  LowerBoundTable table = std::move(*table_or);

  const std::vector<double>& series = idx->series();
  const int omega = cfg.omega;
  const int d_max = cfg.MasterQueryLength();
  const dtw::Envelope env_c =
      dtw::ComputeEnvelope(series.data(), series.size(), cfg.rho);
  const double* mq = series.data() + series.size() - d_max;
  const dtw::Envelope env_mq = dtw::ComputeEnvelope(mq, d_max, cfg.rho);

  for (std::size_t i = 0; i < cfg.elv.size(); ++i) {
    const int d = cfg.elv[i];
    for (long t = 0; t < idx->NumCandidates(i, 1); ++t) {
      const CsgAlignment a = AlignmentFor(t, d, omega);
      if (a.m < 1) continue;
      double sum_eq = 0.0;
      double sum_ec = 0.0;
      for (int j = 0; j < a.m; ++j) {
        const int sw = a.b + j * omega;
        const long dw = a.r - j;
        const std::size_t mq_begin = SlidingWindowBegin(d_max, omega, sw);
        const std::size_t c_begin = dw * omega;
        sum_eq += dtw::LbKeoghAligned(env_mq, mq_begin, series.data(),
                                      c_begin, omega);
        sum_ec += dtw::LbKeoghAligned(env_c, c_begin, mq, mq_begin, omega);
      }
      ASSERT_NEAR(table.lb_eq[i][t], sum_eq, 1e-9) << "i=" << i << " t=" << t;
      ASSERT_NEAR(table.lb_ec[i][t], sum_ec, 1e-9) << "i=" << i << " t=" << t;
    }
  }
}

TEST(SearchStatsTest, AddAccumulates) {
  SearchStats a;
  a.candidates_total = 10;
  a.candidates_verified = 4;
  a.verify_seconds = 1.5;
  SearchStats b;
  b.candidates_total = 7;
  b.candidates_verified = 2;
  b.lower_bound_seconds = 0.5;
  a.Add(b);
  EXPECT_EQ(a.candidates_total, 17u);
  EXPECT_EQ(a.candidates_verified, 6u);
  EXPECT_DOUBLE_EQ(a.verify_seconds, 1.5);
  EXPECT_DOUBLE_EQ(a.lower_bound_seconds, 0.5);
}
// ------------------------------------------------------- scan baselines

TEST(ScanBaselinesTest, AllMethodsMatchBruteForce) {
  simgpu::Device device;
  SmilerConfig cfg = SmallConfig();
  Rng rng(61);
  ts::TimeSeries s("t", RandomWalk(&rng, 300));
  for (ScanMethod method : {ScanMethod::kFastGpuScan, ScanMethod::kGpuScan,
                            ScanMethod::kFastCpuScan}) {
    auto result = ScanSearch(&device, s, cfg, /*k=*/6, /*reserve_horizon=*/1,
                             method);
    ASSERT_TRUE(result.ok()) << ScanMethodName(method);
    for (std::size_t i = 0; i < cfg.elv.size(); ++i) {
      const int rho =
          method == ScanMethod::kGpuScan ? cfg.elv[i] : cfg.rho;
      auto want = BruteKnn(s.values(), cfg.elv[i], rho, 6, 1);
      ExpectSameNeighbors(result->items[i].neighbors, want);
    }
  }
}

TEST(ScanBaselinesTest, AgreesWithSmilerIndex) {
  simgpu::Device device;
  SmilerConfig cfg = SmallConfig();
  Rng rng(62);
  ts::TimeSeries s("t", RandomWalk(&rng, 400));
  auto idx = SmilerIndex::Build(&device, s, cfg);
  ASSERT_TRUE(idx.ok());
  SuffixSearchOptions opts;
  opts.k = 8;
  auto via_index = idx->Search(opts);
  ASSERT_TRUE(via_index.ok());
  auto via_scan =
      ScanSearch(&device, s, cfg, 8, 1, ScanMethod::kFastGpuScan);
  ASSERT_TRUE(via_scan.ok());
  for (std::size_t i = 0; i < cfg.elv.size(); ++i) {
    ExpectSameNeighbors(via_index->items[i].neighbors,
                        via_scan->items[i].neighbors);
  }
}

TEST(ScanBaselinesTest, RejectsBadArguments) {
  simgpu::Device device;
  SmilerConfig cfg = SmallConfig();
  ts::TimeSeries s("t", std::vector<double>(300, 0.0));
  EXPECT_FALSE(
      ScanSearch(&device, s, cfg, 0, 1, ScanMethod::kFastGpuScan).ok());
  EXPECT_FALSE(
      ScanSearch(&device, s, cfg, 4, -1, ScanMethod::kFastGpuScan).ok());
  EXPECT_FALSE(
      ScanSearch(nullptr, s, cfg, 4, 1, ScanMethod::kFastGpuScan).ok());
  // CPU scan tolerates a null device.
  EXPECT_TRUE(
      ScanSearch(nullptr, s, cfg, 4, 1, ScanMethod::kFastCpuScan).ok());
}

TEST(ScanBaselinesTest, FastCpuScanPrunes) {
  simgpu::Device device;
  SmilerConfig cfg;
  cfg.rho = 8;
  cfg.omega = 16;
  cfg.elv = {32, 64};
  cfg.ekv = {8};
  auto data = ts::MakeDataset({ts::DatasetKind::kMall, 1, 3000, 128, 3, true});
  ASSERT_TRUE(data.ok());
  SearchStats stats;
  auto result = ScanSearch(nullptr, (*data)[0], cfg, 8, 1,
                           ScanMethod::kFastCpuScan, &stats);
  ASSERT_TRUE(result.ok());
  // The cascade must prune a meaningful fraction of candidates.
  EXPECT_LT(stats.candidates_verified, stats.candidates_total / 2);
}

}  // namespace
}  // namespace index
}  // namespace smiler
