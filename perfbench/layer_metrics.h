// Per-layer metrics of the traced run.
//
// Every workload reports the same list of per-layer metrics; a metric whose
// layer the workload does not exercise reads 0 and says so in its note.
// The inputs come from three places: span totals recorded around the calls
// the benchmark makes, counter deltas from the obs registry around the
// traced phase, and the component replay (bench.h).

#ifndef ENSEMBLE_PERFBENCH_LAYER_METRICS_H_
#define ENSEMBLE_PERFBENCH_LAYER_METRICS_H_

#include <array>
#include <functional>
#include <memory>
#include <string>

#include "perfbench/bench.h"
#include "perfbench/shim.h"
#include "perfbench/spans.h"
#include "src/obs/metrics.h"

namespace perfbench {

// Spans kept whole (and written out) per traced run; totals cover them all.
constexpr size_t kKeepSpans = 50000;
// Messages the component replay pushes through each component.
constexpr uint64_t kReplayMessages = 20000;

// Down-call (Cast/Send) self time, split by the route each call took: read
// from the endpoint's bypass_down counter around the call.
struct DownSplit {
  uint64_t bypass_n = 0;
  uint64_t bypass_ns = 0;
  uint64_t stack_n = 0;
  uint64_t stack_ns = 0;
  void Add(uint64_t self_ns, bool bypass) {
    if (bypass) {
      bypass_n++;
      bypass_ns += self_ns;
    } else {
      stack_n++;
      stack_ns += self_ns;
    }
  }
  void Merge(const DownSplit& o) {
    bypass_n += o.bypass_n;
    bypass_ns += o.bypass_ns;
    stack_n += o.stack_n;
    stack_ns += o.stack_ns;
  }
};

// Before/after snapshots of a private registry (or the runtime's).
class CounterProbe {
 public:
  using SnapFn = std::function<ensemble::obs::MetricsSnapshot()>;
  // Snapshots a registry the probe owns, filled by `fill`.
  void Register(const std::function<void(ensemble::obs::MetricsRegistry&)>& fill);
  // Snapshots through `snap` instead (e.g. ShardRuntime::SnapshotMetrics).
  void Use(SnapFn snap) { snap_ = std::move(snap); }
  void Begin() { before_ = snap_(); }
  void End() { delta_ = snap_().DeltaSince(before_); }
  const ensemble::obs::MetricsSnapshot& delta() const { return delta_; }

 private:
  std::unique_ptr<ensemble::obs::MetricsRegistry> reg_;
  SnapFn snap_;
  ensemble::obs::MetricsSnapshot before_;
  ensemble::obs::MetricsSnapshot delta_;
};

// Runtime-layer figures (the runtime workloads only).
struct RuntimeInputs {
  bool present = false;
  double busy_ratio = 0;
  double events_per_loop = 0;
  double ring_msgs_per_cast = 0;
  uint64_t credit_parks = 0;
  double post_to_run_us = 0;
  uint64_t post_samples = 0;
};

struct LayerInputs {
  std::array<SpanRecorder::Totals, kSpanNames> spans{};
  bool shim = false;  // Network spans exist (the pair workloads).
  ensemble::obs::MetricsSnapshot counters;  // Deltas over the traced phase.
  DownSplit down;
  ShimNetwork::UpSplit up;
  uint64_t casts = 0;            // Casts issued in the traced phase.
  uint64_t self_deliveries = 0;  // Local loopback deliveries in it.
  uint64_t polls = 0;
  uint64_t empty_polls = 0;
  double traced_cps = 0;
  double untraced_cps = 0;
  ReplayResult replay;
  RuntimeInputs runtime;
  // The measured world's set-up: first Cast() to the first peer delivery.
  double first_delivery_us = 0;
};

void AddSpanTotals(const SpanRecorder& rec, LayerInputs* in);
void AddLayerMetrics(const LayerInputs& in, RunReport* report);
void AddViolationFacts(const Tracker::Violations& v, RunReport* report);
// Traced runs: app.failed_ratio from the report's final counts.
void SetFailedRatio(RunReport* report);
std::string SpanFileName(const Options& opt);

}  // namespace perfbench

#endif  // ENSEMBLE_PERFBENCH_LAYER_METRICS_H_
