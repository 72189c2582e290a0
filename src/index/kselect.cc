#include "index/kselect.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

namespace smiler {
namespace index {

namespace {

constexpr int kNumBuckets = 256;

bool NeighborLess(const Neighbor& a, const Neighbor& b) {
  if (a.dist != b.dist) return a.dist < b.dist;
  return a.t < b.t;
}

// Distributive partitioning: histogram `work` into equal-width distance
// buckets, locate the bucket holding the k-th smallest, keep every element
// strictly below it, and recurse into that bucket. Falls back to sorting
// once the active range is tiny or degenerate (all-equal distances).
void SelectRecursive(std::vector<Neighbor>& work, int k,
                     std::vector<Neighbor>* out) {
  while (true) {
    if (k <= 0 || work.empty()) return;
    if (static_cast<int>(work.size()) <= k ||
        work.size() <= 2 * kNumBuckets) {
      std::sort(work.begin(), work.end(), NeighborLess);
      const int take = std::min<int>(k, static_cast<int>(work.size()));
      out->insert(out->end(), work.begin(), work.begin() + take);
      return;
    }

    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (const Neighbor& n : work) {
      lo = std::min(lo, n.dist);
      hi = std::max(hi, n.dist);
    }
    if (!(hi > lo) || !std::isfinite(hi - lo)) {
      // Degenerate range (all equal, or infinities): sort directly.
      std::sort(work.begin(), work.end(), NeighborLess);
      const int take = std::min<int>(k, static_cast<int>(work.size()));
      out->insert(out->end(), work.begin(), work.begin() + take);
      return;
    }

    const double inv_width = kNumBuckets / (hi - lo);
    std::array<int, kNumBuckets> counts{};
    auto bucket_of = [&](double d) {
      int b = static_cast<int>((d - lo) * inv_width);
      return std::min(b, kNumBuckets - 1);
    };
    for (const Neighbor& n : work) counts[bucket_of(n.dist)] += 1;

    // Find the bucket containing the k-th smallest element.
    int pivot_bucket = 0;
    int below = 0;  // elements in buckets strictly before pivot_bucket
    for (; pivot_bucket < kNumBuckets; ++pivot_bucket) {
      if (below + counts[pivot_bucket] >= k) break;
      below += counts[pivot_bucket];
    }

    // Elements below the pivot bucket are all selected; sort just them.
    std::vector<Neighbor> selected;
    std::vector<Neighbor> pivot;
    selected.reserve(below);
    pivot.reserve(counts[pivot_bucket]);
    for (const Neighbor& n : work) {
      const int b = bucket_of(n.dist);
      if (b < pivot_bucket) {
        selected.push_back(n);
      } else if (b == pivot_bucket) {
        pivot.push_back(n);
      }
    }
    std::sort(selected.begin(), selected.end(), NeighborLess);
    out->insert(out->end(), selected.begin(), selected.end());

    // Recurse (iteratively) into the pivot bucket for the remainder.
    k -= below;
    work = std::move(pivot);
  }
}

}  // namespace

std::vector<Neighbor> KSelectSmallest(std::vector<Neighbor> candidates,
                                      int k) {
  std::vector<Neighbor> out;
  if (k <= 0) return out;
  out.reserve(std::min<std::size_t>(candidates.size(), k));
  // Fast path: one +inf (an abandoned or late-pruned candidate) makes the
  // histogram range degenerate and SelectRecursive fall back to a full
  // sort. When at least k distances are below +inf, the k smallest are
  // among them, so drop the +inf (and NaN) ones up front. Selection keys
  // on (dist, t), so the reordering does not change the result.
  const auto below_inf_end = std::partition(
      candidates.begin(), candidates.end(), [](const Neighbor& n) {
        return n.dist < std::numeric_limits<double>::infinity();
      });
  if (below_inf_end - candidates.begin() >= k) {
    candidates.erase(below_inf_end, candidates.end());
  }
  SelectRecursive(candidates, k, &out);
  return out;
}

}  // namespace index
}  // namespace smiler
