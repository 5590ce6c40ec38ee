#ifndef CHRONOQUEL_BENCH_SUITE_QUANTILE_H_
#define CHRONOQUEL_BENCH_SUITE_QUANTILE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

namespace tdb {
namespace bench {

/// Exact quantiles of raw benchmark samples.  Every reported quantile is a
/// value that was actually observed, unlike obs::Histogram, whose log2
/// buckets can only say "somewhere below the next power of two".
class SampleQuantiles {
 public:
  explicit SampleQuantiles(std::vector<double> samples)
      : sorted_(std::move(samples)) {
    std::sort(sorted_.begin(), sorted_.end());
  }

  size_t size() const { return sorted_.size(); }

  /// The q-quantile (q in [0, 1]) by the nearest-rank rule: the smallest
  /// sample with at least q * n samples at or below it.  0 when empty.
  double operator()(double q) const {
    if (sorted_.empty()) return 0;
    const double n = static_cast<double>(sorted_.size());
    size_t rank = static_cast<size_t>(std::ceil(q * n));
    rank = std::clamp<size_t>(rank, 1, sorted_.size());
    return sorted_[rank - 1];
  }

 private:
  std::vector<double> sorted_;
};

}  // namespace bench
}  // namespace tdb

#endif  // CHRONOQUEL_BENCH_SUITE_QUANTILE_H_
