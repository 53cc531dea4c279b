// Summary statistics for the benchmark's reports.

#ifndef ENSEMBLE_PERFBENCH_STATS_H_
#define ENSEMBLE_PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

double Median(std::vector<double> v);

// Nearest-rank percentile: the ceil(pct/100 * n)-th smallest sample.
// Reorders `v`; `v` must be non-empty.
uint64_t NearestRank(std::vector<uint64_t>& v, double pct);

// Samples ranked strictly above the nearest-rank `pct` percentile of n.
size_t SamplesBeyond(size_t n, double pct);

// The percentile rule for tail latency: the highest of 99.9, 99, 95, 90, 75
// and 50 that has at least 10 samples beyond it; 0 when even the median has
// fewer (n < 20).
double SupportedTail(size_t n);

}  // namespace perfbench

#endif  // ENSEMBLE_PERFBENCH_STATS_H_
