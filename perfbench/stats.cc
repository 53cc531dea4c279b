#include "perfbench/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {

// 1-based nearest rank, computed in integer per-mille so 99.9 and 99 are
// exact (ceil on a product of doubles would round 0.99 * 1000 to 991).
size_t Rank(size_t n, double pct) {
  auto permille = static_cast<uint64_t>(std::llround(pct * 10));
  uint64_t rank = (static_cast<uint64_t>(n) * permille + 999) / 1000;
  return static_cast<size_t>(std::clamp<uint64_t>(rank, 1, n));
}

}  // namespace

uint64_t NearestRank(std::vector<uint64_t>& v, double pct) {
  size_t k = Rank(v.size(), pct) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

size_t SamplesBeyond(size_t n, double pct) { return n == 0 ? 0 : n - Rank(n, pct); }

double SupportedTail(size_t n) {
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (SamplesBeyond(n, pct) >= 10) {
      return pct;
    }
  }
  return 0;
}

}  // namespace perfbench
