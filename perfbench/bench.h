// Shared declarations of the benchmark: workloads, options, the
// measurement windows every workload reports through, and the run report.

#ifndef ENSEMBLE_PERFBENCH_BENCH_H_
#define ENSEMBLE_PERFBENCH_BENCH_H_

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "perfbench/payload.h"

namespace perfbench {

enum class Workload : uint8_t { kRtt = 1, kStream = 2, kBulk = 3, kRuntime = 4, kGroups = 5 };

const char* WorkloadName(Workload w);
bool ParseWorkload(const std::string& name, Workload* out);

struct Options {
  Workload workload = Workload::kRtt;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  int part = -1;  // >= 0: one of several processes of an untraced run.
};

// One reported number.  `samples` is how many observations it summarises.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
  std::string note;
};

struct RunReport {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;  // End-to-end (untraced) or per-layer (traced).
  // Extra facts for the artifact file: resolved backend, violations, etc.
  std::vector<std::pair<std::string, std::string>> facts;
  std::string spans_file;
};

// Set-ups timed per process of the pair workloads; setup_s is their median.
constexpr int kSetupReps = 21;
// Length of one measurement window.
constexpr double kWindowSeconds = 0.1;
// A run with casts outstanding and no valid delivery for this long is
// wedged: it stops and counts every outstanding cast as failed.
constexpr uint64_t kStallNs = 1'000'000'000;
// Upper bound on the fixed-count warm-up, for hosts too slow to finish it.
constexpr uint64_t kWarmupCapNs = 10'000'000'000;
// After the measured phase, outstanding casts get this long to arrive.
constexpr uint64_t kDrainNs = 3'000'000'000;

// Windows of one measured phase.  Every window counts: each metric is the
// median over the phase's windows of that window's rate or latency
// percentile, so a few preempted windows move it little and a slowdown of
// most windows moves it fully.
class PhaseStats {
 public:
  void Add(Window w, double seconds);

  double casts_per_s() const;
  double goodput_mb_s() const;
  // Latencies are medians over the windows that delivered anything.
  double p50_us() const;
  double tail_us() const;   // The supported tail percentile, capped at p99.
  // Which percentile tail_us() is: the highest the median window supports.
  // Each window's value at it is a nearest rank even when that window holds
  // fewer samples; the median over windows rests on all of them.
  double tail_pct() const;
  uint64_t windows() const { return windows_.size(); }
  uint64_t latency_samples() const { return latency_samples_; }

 private:
  // The percentiles SupportedTail() may pick, highest first.
  static constexpr double kPcts[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  struct Summary {
    double cps = 0;
    double mbps = 0;
    size_t samples = 0;
    double pct_us[std::size(kPcts)] = {};  // Latency at each of kPcts.
  };
  double MedianAt(double pct) const;

  std::vector<Summary> windows_;
  uint64_t latency_samples_ = 0;
};

// Appends the end-to-end metrics shared by every workload.
// `rss_mb` is the peak RSS read after the warm-up.
void AddEndToEnd(const PhaseStats& phase, const std::vector<double>& setup_s, double rss_mb,
                 RunReport* report);

// Adds the median over the set-ups of the time from the opening cast to the
// first peer delivery, as an artifact fact.
void AddFirstDeliveryFact(const std::vector<double>& first_s, RunReport* report);

double PeakRssMb();

RunReport RunPair(const Options& opt);
RunReport RunRuntime(const Options& opt);

// Component replay of a workload's generated messages through the layers
// inside an endpoint (bypass, stack, marshal, transport).
struct ReplayResult {
  double trydown_ns = 0;
  double tryup_ns = 0;
  uint64_t trydown_calls = 0;
  uint64_t tryup_calls = 0;
  double encode_ns = 0;
  double decode_ns = 0;
  uint64_t marshal_calls = 0;
  double pack_ns = 0;
  double unpack_ns = 0;
  uint64_t pack_msgs = 0;
};
ReplayResult Replay(const BodyPool& pool, const std::vector<uint32_t>& sizes, uint64_t messages);

int RunSelfTests();

}  // namespace perfbench

#endif  // ENSEMBLE_PERFBENCH_BENCH_H_
